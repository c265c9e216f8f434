"""Workload definitions and the seeded procedural scene generator.

Scenes are drawn from a small bedroom/living-room category prior. Each
workload fixes the object count, how tightly the objects are packed and how
large they are, which together set how many object pairs relate, how many
collide and how large the Hungarian problem of the train step is.
``BENCHMARK.json`` gives the reason for each workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scenenat.scene import SceneLayout, SceneObject

#: Category -> nominal (lx, ly, lz) size in metres.
CATEGORIES: dict[str, tuple[float, float, float]] = {
    "bed": (2.0, 1.6, 0.5),
    "nightstand": (0.5, 0.4, 0.55),
    "wardrobe": (1.2, 0.6, 2.0),
    "desk": (1.2, 0.6, 0.75),
    "chair": (0.5, 0.5, 0.9),
    "lamp": (0.3, 0.3, 0.5),
    "shelf": (0.8, 0.3, 1.8),
    "table": (1.0, 1.0, 0.75),
    "sofa": (2.0, 0.9, 0.8),
    "armchair": (0.8, 0.8, 0.9),
    "cabinet": (0.8, 0.5, 0.9),
    "plant": (0.4, 0.4, 0.8),
}
#: Small objects that may stand on top of a support object (gives above/below).
ON_TOP = ("lamp", "plant")
SUPPORTS = ("desk", "table", "nightstand", "cabinet")
ROOM_TYPE = "bedroom"


@dataclass(frozen=True)
class Workload:
    """One set of inputs: scene shape, pool size and train-step shape."""

    name: str
    objects: int  # objects per scene, and grid rows
    half_extent: float  # object centres lie in [-half_extent, half_extent]^2
    size_scale: float  # multiplies every nominal category size
    pool: int  # scenes generated per run, a multiple of batch
    batch: int  # scenes per prep/eval batch, grids per train step
    queries: int  # triplet queries Q of the stand-in model
    scene_triplets: bool  # ground truth: all scene triplets, else the instruction's


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-sparse", objects=8, half_extent=4.0, size_scale=1.0,
                 pool=256, batch=32, queries=16, scene_triplets=False),
        Workload("large-dense", objects=32, half_extent=1.5, size_scale=0.5,
                 pool=64, batch=8, queries=64, scene_triplets=True),
        Workload("large-sparse", objects=32, half_extent=4.0, size_scale=0.35,
                 pool=64, batch=8, queries=64, scene_triplets=True),
    )
}


def _centre(rng: np.random.Generator, w: Workload, reach: float) -> tuple[float, float]:
    """Uniform ground-plane centre that keeps a footprint of radius reach in the room."""
    lim = max(w.half_extent - min(reach, w.half_extent / 2), 0.0)
    return float(rng.uniform(-lim, lim)), float(rng.uniform(-lim, lim))


def generate_scene(w: Workload, rng: np.random.Generator) -> SceneLayout:
    """One scene of w.objects objects; object 1 stands within 1.5 m of object 0.

    The companion guarantees every scene has a relation triplet to describe,
    which ``synthesize_instruction`` requires.
    """
    names = list(CATEGORIES)
    objects: list[SceneObject] = []
    for i in range(w.objects):
        cat = names[int(rng.integers(len(names)))]
        lx, ly, lz = (np.asarray(CATEGORIES[cat]) * w.size_scale * rng.uniform(0.85, 1.15, 3)).tolist()
        yaw = 90.0 * int(rng.integers(4)) if rng.random() < 0.5 else float(rng.uniform(0.0, 360.0))
        reach = math.hypot(lx, ly) / 2
        supports = [o for o in objects if o.category in SUPPORTS]
        if cat in ON_TOP and supports and rng.random() < 0.5:
            base = supports[int(rng.integers(len(supports)))]
            x = base.position[0] + float(rng.uniform(-0.25, 0.25)) * base.size[0]
            y = base.position[1] + float(rng.uniform(-0.25, 0.25)) * base.size[1]
            z = base.position[2] + base.size[2] / 2 + lz / 2
        else:
            x, y = _centre(rng, w, reach)
            if i == 1:
                x0, y0 = objects[0].position[:2]
                angle, dist = float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.5, 1.5))
                x, y = x0 + dist * math.cos(angle), y0 + dist * math.sin(angle)
            z = lz / 2
        appearance = tuple(int(a) for a in rng.integers(0, 64, 4))
        objects.append(SceneObject(cat, appearance, (x, y, z), (lx, ly, lz), yaw))
    return SceneLayout(ROOM_TYPE, objects)


def generate_pool(w: Workload, seed: int) -> list[SceneLayout]:
    """The workload's scenes for one seed; the same seed gives the same scenes."""
    rng = np.random.default_rng((seed, 0))
    return [generate_scene(w, rng) for _ in range(w.pool)]
