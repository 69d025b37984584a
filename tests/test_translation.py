"""Whole-cell translates: atoms, slice norms and Peetre fields.

Everything below the residual packaging reads sample values only, so a
translate by whole cells keeps the level atoms, the slice norms and the
Peetre field bit for bit, moved by the shift.  The residual atoms lie on
the unit lattice k + [0, 1)^n: a translate by whole units moves them as
well, while any other shift cuts the same remainder into other unit
cubes.
"""

import dataclasses
from functools import cache

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slicehardy.atomic import cz_decompose
from slicehardy.config import ScenarioConfig
from slicehardy.grid import GridFunction
from slicehardy.slice_norms import slice_norm

#: the default scenario (h = 1/256) and a log_damped one, the 64 x 64
#: benchmark member's (h = 1/16), and 32 x 32 members at h = 1/8
_CONFIGS = {
    "1d": {},
    "1d-log": {"functional_tag": "log_damped", "t": 0.5, "q": 1.0,
               "family_spec": "bumps:count=3"},
    "2d": {"n": 2, "h": 1 / 16, "functional_tag": "log_damped", "t": 0.5,
           "q": 1.0, "b": 5.0, "N": 6, "family_spec": "bumps:count=1"},
    "2d-small": {"n": 2, "h": 1 / 8, "t": 0.5, "b": 5.0, "N": 6,
                 "ladder_depth": 2, "family_spec": "bumps:count=2"},
    "2d-small-log": {"n": 2, "h": 1 / 8, "functional_tag": "log_damped",
                     "t": 0.5, "q": 1.0, "b": 5.0, "N": 6,
                     "ladder_depth": 2, "family_spec": "bumps:count=2"},
}


@cache
def _config(name):
    return ScenarioConfig(**_CONFIGS[name]).validate()


def _pick(name, seed, index):
    family = _config(name).family(seed)
    return family[index % len(family)]


@cache
def _member(name, seed, index):
    """A family member and its decomposition."""
    cfg, f = _config(name), _pick(name, seed, index)
    return f, cz_decompose(f, cfg.cz_params(cfg.maximal_params()))


def _translate(f, cells):
    return GridFunction(f.origin + np.multiply(cells, f.h), f.h,
                        f.values.copy())


def _split(dec):
    """The level atoms, and the residual ones after them, which are
    indexed 0, 1, ... from the first."""
    r = dec.entries[-1].index + 1
    return dec.entries[:-r], dec.entries[-r:]


def _assert_moved(atoms, moved, shift):
    assert len(moved) == len(atoms)
    for a, b in zip(atoms, moved):
        assert (b.level, b.index, b.lam, b.cube.side) \
            == (a.level, a.index, a.lam, a.cube.side)
        assert b.values.values.tobytes() == a.values.values.tobytes()
        assert np.array_equal(b.values.origin, a.values.origin + shift)
        assert np.array_equal(b.cube.center, np.add(a.cube.center, shift))


#: (config, seed, member): the default family's ten members at two seeds,
#: and the 2-D benchmark member
_members = st.one_of(
    st.tuples(st.just("1d"), st.integers(0, 1), st.integers(0, 9)),
    st.tuples(st.just("2d"), st.just(0), st.just(0)))


@settings(max_examples=12, deadline=None)
@given(_members, st.data())
def test_whole_unit_translate_moves_every_atom_bit_for_bit(member, data):
    f, dec = _member(*member)
    units = data.draw(st.lists(st.integers(-40, 40), min_size=f.n,
                               max_size=f.n))
    shift = np.array(units, dtype=float)
    moved = cz_decompose(_translate(f, shift / f.h), dec.params)
    assert (moved.j_lo, moved.j_hi) == (dec.j_lo, dec.j_hi)
    _assert_moved(dec.entries, moved.entries, shift)


@settings(max_examples=12, deadline=None)
@given(_members, st.data())
def test_sub_unit_translate_recuts_only_the_residual_on_the_lattice(
        member, data):
    """A whole-cell shift that is not a whole unit keeps the level atoms
    bit for bit, moved; the residual atoms are unit-lattice cubes at the
    lowest level, and their sum is the remainder, moved, to rounding."""
    f, dec = _member(*member)
    unit = round(1 / f.h)
    cells = data.draw(st.lists(st.integers(-3 * unit, 3 * unit),
                               min_size=f.n, max_size=f.n))
    assume(any(c % unit for c in cells))
    shift = np.multiply(cells, f.h)
    moved = cz_decompose(_translate(f, cells), dec.params)
    assert (moved.j_lo, moved.j_hi) == (dec.j_lo, dec.j_hi)
    (levels, residual), (levels_moved, residual_moved) = \
        _split(dec), _split(moved)
    _assert_moved(levels, levels_moved, shift)
    for atom in residual_moved:
        assert atom.level == moved.j_lo and atom.cube.side == 1.0
        assert np.array_equal(np.mod(atom.cube.center, 1.0),
                              np.full(f.n, 0.5))
    before = sum(a.lam * a.values for a in residual)
    before = GridFunction(before.origin + shift, f.h, before.values)
    after = sum(a.lam * a.values for a in residual_moved)
    lo, ext = before.union_box(after)
    assert np.allclose(after.embed(lo, ext).values,
                       before.embed(lo, ext).values, rtol=1e-14, atol=0.0)


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(["1d", "1d-log", "2d-small", "2d-small-log"]),
       st.integers(0, 3), st.integers(0, 9), st.data())
def test_slice_norms_and_peetre_fields_ignore_whole_cell_translates(
        name, seed, index, data):
    """Power and log_damped slice norms of a member and of its Peetre
    field, the Hardy quasi-norm's input, in 1-D and 2-D: a whole-cell
    translate changes no bit of either, and moves the field's origin.
    The translate's field is made by params that keep no field yet."""
    cfg, f = _config(name), _pick(name, seed, index)
    cells = data.draw(st.lists(st.integers(-1000, 1000), min_size=f.n,
                               max_size=f.n))
    g = _translate(f, cells)
    sp, mp = cfg.slice_params(), cfg.maximal_params()
    assert slice_norm(g, sp) == slice_norm(f, sp)
    field = mp.peetre_fields([f])[0]
    moved = dataclasses.replace(mp).peetre_fields([g])[0]
    assert moved.values is not field.values
    assert moved.values.tobytes() == field.values.tobytes()
    assert np.array_equal(moved.origin, field.origin + np.multiply(cells,
                                                                   f.h))
    assert slice_norm(moved, sp) == slice_norm(field, sp)
