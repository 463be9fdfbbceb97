"""Transport maps stored as columns: equality, hashing and the ``entries`` view.

A ``TransportMap`` holds each source component's affine pieces as six
columns (``columns``) and each entry as a range of them (``runs``); ``==``
and ``hash`` run over these, and ``entries`` is a view of
``ComponentTransport`` and ``AffinePiece`` records built on its first read.
Equal maps must compare and hash alike whichever path built them, ``==``
must agree with the records' ``==``, and no operation may build the view.
"""

import copy
import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from logspaces import (
    AffinePiece,
    ComponentTransport,
    LogSpaceError,
    MeasureSpace,
    TransportMap,
    glue_transports,
    lift,
    monotone_transport,
    render_transport,
    transport_between_spaces,
    transport_set,
    verify_isometry,
    weighting_isometry,
)
from logspaces import transport
from logspaces.sampling import (
    random_density,
    random_equal_passport_pair,
    random_matched_components_pair,
    random_measurable_set,
    random_step_function,
)


_FIELDS = AffinePiece.__match_args__


def _fields(tmap):
    """The map's fields as records: what ``==`` on the view compares."""
    return tmap.entries, tmap.src_components, tmap.dst_components


def test_no_operation_builds_the_entries_view(monkeypatch):
    def refuse(*args):
        raise AssertionError("a transport record was built")

    monkeypatch.setattr(transport, "_entries_view", refuse)
    monkeypatch.setattr(AffinePiece, "__post_init__", refuse)
    monkeypatch.setattr(ComponentTransport, "__post_init__", refuse)
    pieces = 0
    for seed in range(20):
        rng = random.Random(seed)
        src, dst = random_equal_passport_pair(rng)
        msrc, mdst = random_matched_components_pair(rng)
        pairs = list(zip(msrc.components, mdst.components))
        tmap = transport_between_spaces(src, dst)
        glued = glue_transports(pairs)
        single = monotone_transport(*pairs[0])
        f = random_step_function(rng, src)
        h = random_density(rng, src)
        lift(tmap, f)
        lift(glued, random_step_function(rng, msrc))
        transport_set(tmap, random_measurable_set(rng, src))
        weighting_isometry(f, h)
        verify_isometry(tmap, src, dst, 2, seed)
        verify_isometry(h, src, src, 2, seed)
        render_transport(tmap)
        render_transport(glued)
        again = transport_between_spaces(src, dst)
        assert tmap == again and hash(tmap) == hash(again)
        assert glued == glue_transports(pairs) and hash(glued) == hash(glue_transports(pairs))
        assert single == glue_transports(pairs[:1]) and hash(single) == hash(glue_transports(pairs[:1]))
        pieces += sum(len(cols[0]) for m in (tmap, glued, single) for cols in m.columns)
    assert pieces > 100


def _built_maps(seed):
    """Maps built by the walk and by gluing, from one seed; a pair the walk refuses is left out."""
    rng = random.Random(seed)
    src, dst = random_equal_passport_pair(rng)
    msrc, mdst = random_matched_components_pair(rng)
    pairs = list(zip(msrc.components, mdst.components))
    builders = [
        lambda: transport_between_spaces(src, dst),
        lambda: transport_between_spaces(dst, src),
        lambda: glue_transports(pairs),
    ]
    out = []
    for build in builders:
        try:
            out.append((build, build()))
        except LogSpaceError:  # "pairing incomplete", or an overflow
            pass
    # gluing is the walk's map of each pair, relabelled: pair k maps component k to k
    per_pair = [transport_between_spaces(MeasureSpace((a,)), MeasureSpace((b,))) for a, b in pairs]
    by_hand = TransportMap(
        tuple(ComponentTransport(k, k, e.pieces) for k, t in enumerate(per_pair) for e in t.entries),
        len(pairs),
        len(pairs),
    )
    return out, by_hand, glue_transports(pairs)


def _rebuilt(build, tmap):
    """tmap built again by every path that can build it; each view is built on a fresh map."""
    # the view's fields, read back into records built by hand
    records = []
    for e in build().entries:
        pieces = tuple([AffinePiece(*[getattr(p, n) for n in _FIELDS]) for p in e.pieces])
        records.append(ComponentTransport(e.src, e.dst, pieces))
    return [
        build(),
        TransportMap(build().entries, tmap.src_components, tmap.dst_components),
        TransportMap(records, tmap.src_components, tmap.dst_components),
        pickle.loads(pickle.dumps(build())),
        copy.copy(build()),
        copy.deepcopy(build()),
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_equal_maps_compare_and_hash_alike_whatever_built_them(seed):
    built, by_hand, glued = _built_maps(seed)
    assert by_hand == glued and glued == by_hand and hash(by_hand) == hash(glued)
    assert _fields(by_hand) == _fields(glued)
    for build, tmap in built:
        for again in _rebuilt(build, tmap):
            assert again == tmap and tmap == again and not again != tmap
            assert hash(again) == hash(tmap)
            assert _fields(again) == _fields(tmap)


@st.composite
def small_maps(draw):
    """Hand-built maps of 0-3 pieces per source on a coarse grid, so that equal maps come up often.

    A piece starting at 0 starts at -0.0 or 0.0, which are equal.
    """
    n_src, n_dst = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    image_ends = [0.0] * n_dst
    entries = []
    for src in range(n_src):
        x = 0.0
        for _ in range(draw(st.integers(0, 3))):
            dst = draw(st.integers(0, n_dst - 1))
            length, slope = draw(st.sampled_from([0.5, 1.0])), draw(st.sampled_from([1.0, 2.0]))
            y = image_ends[dst]
            start = draw(st.sampled_from([-0.0, 0.0])) if x == 0 else x
            piece = AffinePiece(start, x + length, slope, y, y + slope * length)
            if entries and (entries[-1].src, entries[-1].dst) == (src, dst) and draw(st.booleans()):
                entries[-1] = ComponentTransport(src, dst, entries[-1].pieces + (piece,))
            else:
                entries.append(ComponentTransport(src, dst, (piece,)))
            x, image_ends[dst] = x + length, y + slope * length
    return TransportMap(tuple(entries), n_src, n_dst)


@settings(max_examples=500, deadline=None)
@given(small_maps(), small_maps())
def test_maps_are_equal_exactly_when_their_records_are(m1, m2):
    assert (m1 == m2) == (_fields(m1) == _fields(m2))
    assert (m1 != m2) == (_fields(m1) != _fields(m2))
    if m1 == m2:
        assert hash(m1) == hash(m2)
