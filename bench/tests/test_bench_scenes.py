import math

import pytest

from bench.scenes import CATEGORIES, WORKLOADS, generate_pool


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_scenes(name):
    w = WORKLOADS[name]
    first = generate_pool(w, 7)
    assert first == generate_pool(w, 7)
    assert first != generate_pool(w, 8)
    assert len(first) == w.pool and w.pool % w.batch == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_scenes_have_the_workload_shape(name):
    w = WORKLOADS[name]
    for scene in generate_pool(w, 3)[:16]:
        assert len(scene.objects) == w.objects
        assert all(o.category in CATEGORIES and min(o.size) > 0 for o in scene.objects)
        a, b = scene.objects[0].position, scene.objects[1].position
        assert math.hypot(a[0] - b[0], a[1] - b[1]) <= 3.0
