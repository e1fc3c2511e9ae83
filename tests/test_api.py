import pickle
import weakref

import pytest

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


# each public record: its field names and a function that builds one
RECORDS = {
    "KernelBasis": (("n", "k", "m", "vectors"), lambda: semiinv.KernelBasis(2, 2, 2)),
    "SparseIntMatrix": (
        ("cols", "rows", "col_keys"),
        lambda: semiinv.SparseIntMatrix(((1,), (1, 2)), {1: {0: 1, 1: 2}, 2: {1: 1}}),
    ),
    "ScanReport": (
        ("family", "params", "checks", "witness", "coefficients_digest"),
        lambda: semiinv.ScanReport("F", {"n": 2, "k": 2}, {"unimodal": False}, 1, "sha256:x"),
    ),
}


def _values(record, fields):
    return tuple(getattr(record, f) for f in fields)


class TestRecords:
    @pytest.mark.parametrize("name", RECORDS)
    def test_fields_are_read_only(self, name):
        fields, make = RECORDS[name]
        record = make()
        for field in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert _values(record, fields) == _values(make(), fields)

    @pytest.mark.parametrize("name", RECORDS)
    def test_repr_is_field_wise(self, name):
        fields, make = RECORDS[name]
        record = make()
        shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
        assert repr(record) == f"{name}({shown})"

    @pytest.mark.parametrize("name", RECORDS)
    def test_pickle_round_trip(self, name):
        # the process pool of a parallel scan pickles every report it returns
        fields, make = RECORDS[name]
        record = make()
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert _values(copy, fields) == _values(record, fields)

    def test_constructors_and_defaults(self):
        vectors = (semiinv.SIPoly.constant(2),)
        kb = semiinv.KernelBasis(n=2, k=0, m=0, vectors=vectors)
        assert _values(kb, RECORDS["KernelBasis"][0]) == (2, 0, 0, vectors)
        assert semiinv.KernelBasis(2, 0, 0).vectors == ()
        mat = semiinv.SparseIntMatrix(cols=(), rows={})
        assert (mat.col_keys, mat.nrows, mat.ncols) == ((), 0, 0)
        report = semiinv.ScanReport(
            family="F", params={}, checks={"unimodal": True}, witness=None,
            coefficients_digest="sha256:x",
        )
        assert report.passed and report.to_json_obj()["witness"] is None

    def test_kernel_basis_is_weakly_referenced(self):
        # witnesses memoises a triangle per basis under a weak reference
        kb = semiinv.KernelBasis(2, 2, 2)
        assert weakref.ref(kb)() is kb

    @pytest.mark.parametrize("name", ["KernelBasis", "SparseIntMatrix"])
    def test_bases_and_matrices_compare_by_identity(self, name):
        a, b = RECORDS[name][1](), RECORDS[name][1]()
        assert a == a and a != b
        assert hash(a) != hash(b)

    def test_reports_compare_by_value(self):
        make = RECORDS["ScanReport"][1]
        assert make() == make() == pickle.loads(pickle.dumps(make()))
        assert make() != semiinv.ScanReport("F", {"n": 2, "k": 2}, {"unimodal": True},
                                            None, "sha256:x")
