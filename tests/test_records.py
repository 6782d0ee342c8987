"""The result-record contract and the lazily resolved package namespace.

Every result record is an immutable value: assignment raises AttributeError,
equal fields mean equal and hash-equal records, and the repr reads
``Name(field=value, ...)``.  The records are named tuples, so they also
compare equal to the plain tuple of their fields.
"""

import copy
import pickle
import subprocess
import sys

import pytest

import gk2codes
from gk2codes import fengrao
from gk2codes.curve import build_basis, census, distinguished_point, enumerate_points, field_context
from gk2codes.fengrao import nu, table
from gk2codes.gk2 import curve_params, semigroup_o1, verify_partition
from gk2codes.quantum import QuantumRange, quantum_table, range_high_degree
from gk2codes.refdata import compare_quantum_table
from gk2codes.semigroup import NumericalSemigroup


def _records():
    p23, p25 = curve_params(2, 3), curve_params(2, 5)
    sg = semigroup_o1(p25)
    ctx = field_context(p23)
    comp = compare_quantum_table(p25, sg, "O1")
    return {
        "CurveParams": p25,
        "PartitionReport": verify_partition(p25),
        "CodeTableRow": table(sg, p25, 1, 3)[2],
        "QuantumRange": quantum_table(p25, sg)[0],
        "QuantumRange with default": QuantumRange(1, 2, 3, 4, 5, "order-bound"),
        "CurvePoint affine": enumerate_points(p23, ctx)[5],
        "CurvePoint infinity": distinguished_point(p23, ctx, "O1"),
        "PointCensus": census(p23, ctx),
        "PoleBasisFunction": build_basis(p23, "O2", 4)[3],
        "CellMismatch": comp.s_min_mismatches[0],
    }


RECORDS = _records()


@pytest.mark.parametrize("label", sorted(RECORDS))
def test_record_refuses_assignment(label):
    record = RECORDS[label]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0)
    with pytest.raises(AttributeError):
        record.not_a_field = 0


@pytest.mark.parametrize("label", sorted(RECORDS))
def test_equal_fields_mean_equal_and_hash_equal(label):
    record = RECORDS[label]
    twin = type(record)(**{name: getattr(record, name) for name in record._fields})
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert twin == tuple(record)  # the visible change: records are tuples
    other = record._replace(**{record._fields[-1]: "changed"})
    assert other != record


@pytest.mark.parametrize("label", sorted(RECORDS))
def test_repr_names_every_field(label):
    record = RECORDS[label]
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_record_methods_and_defaults():
    assert RECORDS["PartitionReport"].all_ok
    assert RECORDS["QuantumRange with default"].discrepancy is None
    assert not RECORDS["QuantumRange"].empty
    assert range_high_degree(curve_params(2, 5), 3922).empty  # s_max = N - 2l < 1
    assert RECORDS["CurvePoint infinity"].sort_key() == (1, RECORDS["CurvePoint infinity"].a)
    assert RECORDS["CurvePoint affine"].sort_key()[0] == 0
    comp = compare_quantum_table(curve_params(2, 5), semigroup_o1(curve_params(2, 5)), "O1")
    assert comp.summary()["s_min_mismatches"][0] == {
        "index": 46, "column": "s_min", "computed": 46, "reference": 47,
    }


def test_semigroup_is_an_immutable_value():
    sg = NumericalSemigroup.from_generators((5, 3))
    for name in ("generators", "genus", "_feng_rao_profile", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(sg, name, 0)
    with pytest.raises(AttributeError):
        del sg.genus
    twin = NumericalSemigroup.from_generators([3, 5, 3])
    assert twin is not sg and twin == sg and hash(twin) == hash(sg)
    assert sg != NumericalSemigroup.from_generators((3, 7))
    assert sg != tuple(sg._key())
    assert copy.copy(sg) == sg and pickle.loads(pickle.dumps(sg)) == sg
    assert repr(sg) == (
        "NumericalSemigroup(generators=(3, 5), conductor=8, genus=4, gaps=(1, 2, 4, 7), "
        "nongaps_cached=(0, 3, 5, 6, 8, 9, 10, 11, 12, 13))"
    )


def test_semigroup_profile_is_built_once(monkeypatch):
    calls = []
    squaring = fengrao._gap_pair_counts
    monkeypatch.setattr(fengrao, "_gap_pair_counts", lambda *a: calls.append(a) or squaring(*a))
    sg = NumericalSemigroup.from_generators((4, 6, 9))
    values = [nu(sg, l) for l in range(1, 40)]
    table(sg, curve_params(2, 3), 1, 30)
    assert len(calls) == 1
    assert [nu(sg, l) for l in range(1, 40)] == values
    assert len(calls) == 1


def _fresh(code):
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_package_namespace_is_lazy_and_complete():
    probe = (
        "import sys\n"
        "import gk2codes\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('gk2codes.'))\n"
        "print('loaded:' + ','.join(loaded))\n"
        "listed = set(dir(gk2codes))\n"
        "for name in gk2codes.__all__:\n"
        "    value = getattr(gk2codes, name)\n"
        "    owner = getattr(value, '__module__', '')\n"
        "    print(name, owner.startswith('gk2codes.') and name in listed)\n"
        "ns = {}\n"
        "exec('from gk2codes import *', ns)\n"
        "print('star', sorted(set(ns) - {'__builtins__'}) == sorted(gk2codes.__all__))\n"
    )
    out = _fresh(probe)
    assert out[0] == "loaded:"  # importing the package loads no submodule
    answers = dict(zip(out[1::2], out[2::2]))
    assert answers.pop("star") == "True"
    assert sorted(answers) == sorted(gk2codes.__all__)
    assert set(answers.values()) == {"True"}


def test_package_rejects_unknown_names():
    with pytest.raises(AttributeError):
        gk2codes.not_a_name  # noqa: B018
    with pytest.raises(ImportError):
        from gk2codes import not_a_name  # noqa: F401
