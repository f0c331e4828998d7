"""The oracle snapshot and the production paths measured against it.

``oracle.json`` froze what the per-rank generator programs computed over
the equivalence matrix (see :mod:`tests.simulator.oracle`); the
generator programs are gone.  The tests that ran each part of the matrix
hold the algorithm's ``run()`` (its recording and a memory hit) and
``run_spmd_vector`` to its entries: ``test_ir.py``,
``test_vector_equivalence.py``, ``tests/core/test_trace_cost_identity.py``
and the adversarial-input tests.  This module checks the snapshot itself
and the groups no other test owns: ``test_oblivious.py``'s cross-seed
runs, ``scripts/ir_parity.py``'s configurations and, marked ``slow``,
the grids frozen from the property sweeps.  Every case's data is
checked against numpy too.
"""

import pytest

from tests.simulator import oracle


def test_snapshot_holds_exactly_the_case_matrix():
    assert set(oracle.load()) == set(oracle.all_cases())


def test_snapshot_is_canonical():
    assert oracle.dump(oracle.load()) == oracle.SNAPSHOT.read_text()


def test_snapshot_stays_small():
    assert oracle.SNAPSHOT.stat().st_size <= 150_000


def test_entries_pin_returns_except_matmuls():
    for cid, e in oracle.load().items():
        assert (e[3] is None) == cid.startswith("matmul/"), cid


def test_a_moved_part_is_named():
    c = oracle.case("lu", "cm5", 0, 8, P=1, seed=2)
    res = oracle.run_ir(c)
    assert oracle.moved(c, res) == []
    res.trace.supersteps[0].measured_us += 1.0
    assert oracle.moved(c, res) == ["measured"]
    res.returns[0][0, 0] += 1.0
    assert oracle.moved(c, res) == ["measured", "returns"]


def check(c: oracle.Case) -> None:
    """Every production path of ``c`` against its entry and numpy, and
    against each other bit for bit (matmul's blocks included)."""
    runs = oracle.engines(c)
    oracle.assert_engines_agree(c, runs)
    oracle.check_data(c, runs["vector"], runs.get("record"))


@pytest.mark.parametrize("group", ["cross-seed", "ir-parity"])
def test_production_paths_match_the_snapshot(group):
    for c in oracle.GROUPS[group]():
        check(c)


@pytest.mark.slow  # 390 cases, ~5 s; tier-1 keeps the hypothesis sweeps
@pytest.mark.parametrize("algorithm", ["apsp", "bitonic", "lu", "radix",
                                       "samplesort"])
def test_property_sweep_grids_match_the_snapshot(algorithm):
    for c in oracle.GROUPS["sweep"]():
        if c.algorithm == algorithm:
            check(c)
