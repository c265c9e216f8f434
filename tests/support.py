"""Fixtures that several test modules share, each defined once.

A plain module, not a ``test_*`` one, so pytest does not collect it; ``pytest.ini`` puts ``tests`` on the path.
Test modules import from here and never from one another.
"""

import numpy as np
from hypothesis import strategies as st

from scenenat.instructions import build_word_vocab
from scenenat.scene import DiscretizationSpec, SceneCodec, SceneLayout, SceneObject

# The prep fixtures: an 8-object codec over four categories, one of them two words, and its word vocabulary.
CATEGORIES = ["bed", "chair", "desk", "floor lamp"]
CODEC = SceneCodec(CATEGORIES, DiscretizationSpec(), max_objects=8)
VOCAB = build_word_vocab(CATEGORIES)

TOP = np.nextafter(1.0, 0.0)  # the largest double below 1, the largest value rng.random can return


class LargestDraws:
    """A generator stand-in whose draws are all the largest double below 1; zero_first_plane zeroes out[0]."""

    def __init__(self, zero_first_plane=False):
        self.zero_first_plane = zero_first_plane

    def random(self, size):
        out = np.full(size, TOP)
        if self.zero_first_plane:
            out[0] = 0.0
        return out


def count_calls(monkeypatch, module, name):
    """Patch module.<name> to record each call in the returned list and still run."""
    calls = []
    wrapped = getattr(module, name)

    def counting(*args):
        calls.append(1)
        return wrapped(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def obj(cat, x, y, z=0.25, w=0.5, d=0.5, h=0.5, yaw=0.0):
    """An object of the given category at (x, y, z), w x d x h, turned yaw degrees."""
    return SceneObject(cat, (0, 0, 0, 0), (x, y, z), (w, d, h), yaw)


@st.composite
def snapped_layouts(draw, codec):
    """Scenes of 2..8 objects of the codec's categories packed into 2 m x 2 m, snapped by the codec, so most
    pairs relate and stacked and coincident pairs occur."""
    xy = st.floats(-1.0, 1.0)
    objects = [
        SceneObject(
            draw(st.sampled_from(codec.categories)),
            (0, 0, 0, 0),
            (draw(xy), draw(xy), draw(st.floats(0.0, 2.0))),
            tuple(draw(st.floats(0.05, 2.0)) for _ in range(3)),
            draw(st.floats(0.0, 360.0, exclude_max=True)),
        )
        for _ in range(draw(st.integers(2, 8)))
    ]
    return codec.snap(SceneLayout("bedroom", objects))
