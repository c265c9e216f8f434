"""Fixtures and helpers that several test modules share, each defined once.

A plain module, not a ``test_*`` one, so pytest does not collect it; ``pytest.ini`` puts ``tests`` on the path.
Test modules import from here and never from one another.
"""

import numpy as np
from hypothesis import strategies as st

from scenenat.instructions import build_word_vocab
from scenenat.relations import GeometryFrame
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


def count_calls(monkeypatch, owner, name):
    """Patch owner.<name>, a module function or a method, to record each call in the returned list and still run."""
    calls = []
    wrapped = getattr(owner, name)

    def counting(*args):
        calls.append(1)
        return wrapped(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def make_codec(max_objects=4, **spec):
    """A codec over bed, chair, desk and lamp; spec holds DiscretizationSpec fields."""
    return SceneCodec(["bed", "chair", "desk", "lamp"], DiscretizationSpec(**spec), max_objects=max_objects)


def obj(cat, x, y, z=0.25):
    """A 0.5 m cube of the given category centred at (x, y, z), unturned."""
    return SceneObject(cat, (0, 0, 0, 0), (x, y, z), (0.5, 0.5, 0.5), 0.0)


def frame(x=0.0, y=0.0, z=0.5, w=1.0, d=1.0, h=1.0, yaw=0.0):
    """The frame of a w x d x h box centred at (x, y, z), turned yaw radians."""
    return GeometryFrame(center=(x, y, z), half_extents=(w / 2, d / 2, h / 2), yaw=yaw)


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


@st.composite
def resting_layouts(draw, codec):
    """Unsnapped scenes of 2..8 objects of the codec's categories, each standing on the floor or resting on an
    earlier object: z is the support's top plus half its own height, and its centre lies within 0.25 m of the
    support's in x and y. Heights are sixteenths of a metre or any float, so the z gap of a resting pair equals
    its mean height exactly in some draws and misses it by a rounding in others, and a tower of three is
    vertically separated; heights of at most 0.5 m keep a tower of 8 within the codec's z bounds."""
    xy, offset = st.floats(-1.0, 1.0), st.floats(-0.25, 0.25)
    height = st.one_of(st.integers(1, 8).map(lambda k: k / 16), st.floats(0.05, 0.5))
    objects = []
    for _ in range(draw(st.integers(2, 8))):
        size = (draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0)), draw(height))
        on = draw(st.none() | st.sampled_from(objects)) if objects else None
        if on is None:
            position = (draw(xy), draw(xy), size[2] / 2)
        else:
            x, y, z = on.position
            top = z + on.size[2] / 2
            position = (x + draw(offset), y + draw(offset), top + size[2] / 2)
        yaw = draw(st.floats(0.0, 360.0, exclude_max=True))
        objects.append(SceneObject(draw(st.sampled_from(codec.categories)), (0, 0, 0, 0), position, size, yaw))
    return SceneLayout("bedroom", objects)


# Central finite differences: check_gradients probes each element at x + STEP and x - STEP.
STEP = 1e-6
TOLERANCE = 1e-5  # on the relative error, the autodiff library's accuracy contract


def check_gradients(make_loss, params, max_probes_per_tensor=8):
    """Assert that the analytic grads of make_loss() with respect to float64 params match central differences.

    make_loss must rebuild the graph from the current param values on every call. Probes every element of a
    tensor of at most max_probes_per_tensor elements, else that many drawn without replacement from a generator
    seeded 0.
    """
    rng = np.random.default_rng(0)
    for p in params:
        p.grad = None
    make_loss().backward()
    grads = [np.zeros(p.data.size) if p.grad is None else p.grad.reshape(-1).copy() for p in params]
    for p, grad in zip(params, grads):
        flat, n = p.data.reshape(-1), p.data.size
        probes = range(n) if n <= max_probes_per_tensor else rng.choice(n, size=max_probes_per_tensor, replace=False)
        for i in probes:
            orig = flat[i]
            flat[i] = orig + STEP
            f_plus = make_loss().item()
            flat[i] = orig - STEP
            f_minus = make_loss().item()
            flat[i] = orig
            analytic, numeric = float(grad[i]), (f_plus - f_minus) / (2 * STEP)
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            assert err < TOLERANCE, f"gradient mismatch at element {i}: analytic={analytic!r} numeric={numeric!r} rel_err={err:.3g}"
