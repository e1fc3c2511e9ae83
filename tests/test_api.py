import semiinv

# the package's public names; a change here is a deliberate API change
PUBLIC = [
    "DependenceError",
    "F",
    "G",
    "KernelBasis",
    "NonnegativityViolation",
    "QPoly",
    "SIPoly",
    "ScanReport",
    "SparseIntMatrix",
    "SylvesterMismatchError",
    "VerificationError",
    "apply_D",
    "base_grid_deltas",
    "bergeron",
    "build_D_matrix",
    "coefficients_digest",
    "count_partitions_in_box",
    "delta",
    "enumerate_partitions_in_box",
    "first_negative_index",
    "gauss",
    "independence_check",
    "is_strictly_unimodal_except_ends",
    "is_symmetric",
    "is_unimodal",
    "kernel_basis",
    "kernel_basis_cached",
    "lemma_combine",
    "nr8_witnesses",
    "scan_bergeron",
    "scan_conjecture_F_strict",
    "scan_strange",
    "semiinvariant_dim",
    "shear_check",
    "shear_coefficients",
    "stanley_zanello",
    "strange",
    "strict_witnesses",
    "strictness_break",
    "sylvester_grid_mismatches",
    "symmetry_break",
    "triangulate",
    "unimodality_break",
    "verify_theorem_F",
    "verify_theorem_G",
    "write_csv",
    "write_jsonl",
]


def test_public_api_is_pinned():
    assert len(PUBLIC) == 47
    assert sorted(semiinv.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(semiinv, name, None) is not None, name
