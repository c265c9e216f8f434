import numpy as np
import pytest

from bench import gate, harness
from bench.spans import untraced
from bench.scenes import Workload

TINY = Workload("tiny", objects=6, half_extent=2.0, size_scale=0.6,
                pool=8, batch=4, queries=8, scene_triplets=True)


@pytest.fixture(scope="module")
def bench():
    return harness.Bench(TINY, 5)


def test_census_passes_and_digest_repeats_for_a_seed(bench):
    counts, digest = bench.census()
    again = harness.Bench(TINY, 5)
    assert again.census() == (counts, digest)
    assert counts["relations.pairs"] == 30
    assert counts["matching.assign_cols"] == 8
    assert harness.Bench(TINY, 6).census()[1] != digest


def test_timed_batches_reproduce_the_census(bench):
    bench.census()
    t = harness.measure(bench, untraced, 0.05)
    assert t.failed == 0 and t.mismatched == 0
    assert all(t.raw[p] and t.raw[p].keys() == t.scaled[p].keys() for p in harness.PHASES)
    assert all(t.per_unit(p) > 0 for p in harness.PHASES)


def test_hungarian_check_fires_on_a_wrong_optimum():
    cost = np.random.default_rng(0).standard_normal((5, 7))
    gate.check_hungarian([cost])
    with pytest.raises(gate.GateError):
        gate.check_hungarian([cost], optimum=lambda c: gate.scipy_optimum(c) - 1e-6)


def test_attribute_accuracy_check_fires_on_a_wrong_reference(bench):
    rows = range(TINY.batch)
    args = ([bench.prepped[i].grid for i in rows], [bench.decoded[i] for i in rows], [bench.filled[i] for i in rows])
    want = gate.attribute_accuracy_reference(bench.codec, *args)
    got = harness.evaluation.attribute_accuracy(*args, bench.codec)
    gate.check_attribute_accuracy(got, want)
    wrong = {**want, "size": {**want["size"], "count": want["size"]["count"] + 1}}
    with pytest.raises(gate.GateError):
        gate.check_attribute_accuracy(got, wrong)


def test_other_checks_fire():
    with pytest.raises(gate.GateError):
        gate.check_irecall(99.0)
    loss = np.asarray(1.5, dtype=np.float32)
    gate.check_train_step(loss, loss.copy(), [np.zeros(3)])
    with pytest.raises(gate.GateError):
        gate.check_train_step(loss, np.nextafter(loss, np.float32(2)), [np.zeros(3)])
    with pytest.raises(gate.GateError):
        gate.check_train_step(loss, loss.copy(), [None])


def test_mirror_violation_counts_coincident_centres():
    from scenenat.relations import RelationPredicate as P, RelationTriplet

    def t(i, j, p):
        return RelationTriplet("bed", p, "lamp", i, j)

    assert harness.mirror_violations([t(0, 1, P.LEFT_OF), t(1, 0, P.RIGHT_OF)]) == 0
    assert harness.mirror_violations([t(0, 1, P.RIGHT_OF), t(1, 0, P.RIGHT_OF)]) == 1
    assert harness.mirror_violations([t(0, 1, P.ABOVE)]) == 1


def test_monte_carlo_check_passes_a_barely_touching_pair_and_fires_on_a_wrong_volume():
    import math

    from scenenat.evaluation import monte_carlo_volume, obb_intersection_volume
    from scenenat.relations import GeometryFrame

    cube = GeometryFrame((0.0, 0.0, 0.5), (0.5, 0.5, 0.5), 0.0)
    # A cube turned 45 degrees whose corner pokes 1e-5 m into the other: almost no point hits.
    corner = GeometryFrame((0.5 + 0.5 * math.sqrt(2) - 1e-5, 0.0, 0.5), (0.5, 0.5, 0.5), math.pi / 4)
    assert obb_intersection_volume(cube, corner) > 0.0
    assert monte_carlo_volume(cube, corner, gate.MC_SAMPLES, np.random.default_rng(0))[0] == 0.0
    gate.check_monte_carlo([(cube, corner)], np.random.default_rng(0))

    overlap = GeometryFrame((0.6, 0.3, 0.5), (0.5, 0.5, 0.5), math.pi / 6)
    gate.check_monte_carlo([(cube, overlap)], np.random.default_rng(2))
    with pytest.raises(gate.GateError):
        gate.check_monte_carlo(
            [(cube, overlap)], np.random.default_rng(2), volume=lambda a, b: 1.05 * obb_intersection_volume(a, b)
        )
