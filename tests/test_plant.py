"""Plant dynamics: stacking rules, rate/inflation laws, motion, drops, conflicts."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peristation import (
    COMPRESSION,
    DEFLATE,
    HOLD,
    INFLATE,
    LONGITUDINAL,
    ModuleSpec,
    ObjectSpec,
    ObjectState,
    Plant,
    PlantParams,
    RingGeometry,
    StationLayout,
    SurrogateMaterial,
    build_station,
    calibrate_kappa,
    station_violations,
    time_to_contact,
)
from peristation.geometry import InfeasibleGeometryError, solve_chamber_length
from peristation.plant import (MAX_MODULES, VALVE_MODES, contact_pressure,
                               full_compression_inflation, stack_modules)
from tests.conftest import NOMINAL, data_address


def make_plant(layout, material, params, obj=None):
    return Plant(layout, obj, params, material)


def advance(plant, ticks):
    """Move the plant ticks steps on, one trajectory at a time; returns the events."""
    events = []
    while ticks:
        traj = plant.trajectory(ticks)
        events += plant.commit(traj, len(traj) - 1)
        ticks -= len(traj) - 1
    return events


def pressure(plant, module_id):
    """The module's current pressure: row 0 of a zero-step trajectory."""
    return plant.trajectory(0).pressure[0, module_id - 1].item()


def inflation(plant, module_id):
    return plant.inflation(plant.trajectory(0).pressure)[0, module_id - 1].item()


def span(plant, module_id):
    """The module's current (bottom, top) z: its rest span raised by its lift."""
    mod = plant.layout.module(module_id)
    lo = mod.z_origin + plant.trajectory(0).lift[0, module_id - 1].item()
    return lo, lo + mod.height_h


def supporters(plant):
    """The ids of the rings gripping the object now."""
    contact = plant.trajectory(0).contact[0]
    return frozenset(m.id for m in plant.layout.modules if contact[m.id - 1])


def grip(plant, module_id, ticks=1700):
    """Inflate one ring past first contact, then hold it."""
    plant.set_valve(module_id, INFLATE)
    advance(plant, ticks)
    plant.set_valve(module_id, HOLD)


class TestStationRules:
    def test_build_station_layout(self, geometry):
        layout = build_station(geometry, 5, 20.0, 20.0)
        kinds = [m.kind for m in layout.modules]
        assert kinds == [COMPRESSION, LONGITUDINAL, COMPRESSION, LONGITUDINAL, COMPRESSION]
        assert [m.id for m in layout.modules] == [1, 2, 3, 4, 5]
        assert [m.z_origin for m in layout.modules] == [0.0, 20.0, 40.0, 60.0, 80.0]
        assert layout.station_top == 100.0
        assert layout.module(3) is layout.modules[2]

    def test_mixed_heights_stack_contiguously(self, geometry):
        layout = build_station(geometry, 5, 20.0, 10.0)
        assert [m.z_origin for m in layout.modules] == [0.0, 20.0, 30.0, 50.0, 60.0]
        assert layout.station_top == 80.0

    @pytest.mark.parametrize("count", [0, 2, 4, -3])
    def test_even_or_empty_count_rejected(self, geometry, count):
        with pytest.raises(ValueError, match="odd"):
            build_station(geometry, count, 20.0, 20.0)

    def test_single_module_station(self, geometry):
        mods = [ModuleSpec(1, COMPRESSION, geometry, 20.0, 0.0)]
        assert station_violations(mods) == ["station needs at least one (C, L, C) triple"]

    def test_empty_station_named(self):
        assert station_violations([]) == ["station must contain at least one module"]

    def test_noncontiguous_ids_named(self, geometry):
        mods = [
            ModuleSpec(1, COMPRESSION, geometry, 20.0, 0.0),
            ModuleSpec(3, LONGITUDINAL, geometry, 20.0, 20.0),
            ModuleSpec(5, COMPRESSION, geometry, 20.0, 40.0),
        ]
        assert "module ids must be contiguous from 1" in station_violations(mods)

    def test_wrong_ends_named(self, geometry):
        mods = [
            ModuleSpec(1, LONGITUDINAL, geometry, 20.0, 0.0),
            ModuleSpec(2, COMPRESSION, geometry, 20.0, 20.0),
            ModuleSpec(3, LONGITUDINAL, geometry, 20.0, 40.0),
        ]
        bad = station_violations(mods)
        assert "first and last modules must be Compression" in bad

    def test_broken_alternation_named(self, geometry):
        mods = [
            ModuleSpec(1, COMPRESSION, geometry, 20.0, 0.0),
            ModuleSpec(2, COMPRESSION, geometry, 20.0, 20.0),
            ModuleSpec(3, COMPRESSION, geometry, 20.0, 40.0),
        ]
        bad = station_violations(mods)
        assert "module kinds must alternate Compression/Longitudinal" in bad

    def test_unknown_kind_and_bad_height_named(self, geometry):
        mods = [
            ModuleSpec(1, "Radial", geometry, -1.0, 0.0),
        ]
        bad = station_violations(mods)
        assert "module 1: unknown kind 'Radial'" in bad
        assert "module 1: height_h must be > 0" in bad

    @pytest.mark.parametrize("height", [math.nan, math.inf])
    def test_non_finite_height_named(self, geometry, height):
        mods = [
            ModuleSpec(1, COMPRESSION, geometry, height, 0.0),
            ModuleSpec(2, LONGITUDINAL, geometry, 20.0, 20.0),
            ModuleSpec(3, COMPRESSION, geometry, 20.0, 40.0),
        ]
        assert f"module 1: height_h must be finite, got {height}" in station_violations(mods)

    def test_overlapping_origins_named(self, geometry):
        mods = [
            ModuleSpec(1, COMPRESSION, geometry, 20.0, 0.0),
            ModuleSpec(2, LONGITUDINAL, geometry, 20.0, 0.0),
            ModuleSpec(3, COMPRESSION, geometry, 20.0, 40.0),
        ]
        assert "z_origins must be strictly increasing with id" in station_violations(mods)

    def test_layout_constructor_rejects_invalid(self, geometry):
        mods = (
            ModuleSpec(1, LONGITUDINAL, geometry, 20.0, 0.0),
            ModuleSpec(2, COMPRESSION, geometry, 20.0, 20.0),
            ModuleSpec(3, LONGITUDINAL, geometry, 20.0, 40.0),
        )
        with pytest.raises(ValueError, match="invalid station"):
            StationLayout(mods)

    def test_at_most_max_modules(self, geometry):
        """The bound holds for any module list, not only for a module count."""
        kinds = [(COMPRESSION if i % 2 == 0 else LONGITUDINAL, 1.0)
                 for i in range(MAX_MODULES + 2)]
        assert station_violations(stack_modules(geometry, kinds[:MAX_MODULES])) == []
        mods = stack_modules(geometry, kinds)
        assert station_violations(mods) == ["station must have at most 9999 modules, got 10001"]
        with pytest.raises(ValueError, match="at most 9999 modules"):
            StationLayout(tuple(mods))


class TestPlantParams:
    def test_contact_rate_slope_frozen(self, params):
        assert params.contact_rate_slope == pytest.approx(3.1947652040030805, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(P_max=0.0),
            dict(k_free=-1.0),
            dict(k_vent=0.0),
            dict(dt=0.0),
            dict(noise_sigma=-0.1),
            dict(P_max=math.nan),
            dict(k_contact_at_0p7=math.inf),
            dict(k_vent=math.nan),
            dict(dt=math.inf),
            dict(noise_sigma=math.nan),
            dict(rng_seed=-1),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PlantParams(**kwargs)


def full(plant, *module_ids, ticks=4000):
    """Inflate the rings to P_max (4 s at the free rate is well past it)."""
    for mid in module_ids:
        plant.set_valve(mid, INFLATE)
    advance(plant, ticks)


class TestPressureRate:
    def test_hold_is_zero(self, three_module_layout, material, params):
        obj = ObjectState(ObjectSpec(17.5, 75.0), 0.0)
        plant = make_plant(three_module_layout, material, params, obj)
        grip(plant, 1)  # in contact, where inflating would take the loaded rate
        held = pressure(plant, 1)
        advance(plant, 1)
        assert pressure(plant, 1) == held

    def test_deflate_is_minus_vent_rate(self, three_module_layout, material, params):
        plant = make_plant(three_module_layout, material, params)
        full(plant, 1)
        plant.set_valve(1, DEFLATE)
        advance(plant, 1)
        assert pressure(plant, 1) == 15.0 - 12.0 * params.dt

    def test_free_inflation_rate(self, three_module_layout, material, params):
        plant = make_plant(three_module_layout, material, params)
        plant.set_valve(1, INFLATE)
        advance(plant, 1)
        assert pressure(plant, 1) == 4.33 * params.dt

    def test_contact_rate_at_anchor(self, params):
        assert params.contact_rate(0.7) == pytest.approx(8.48, rel=1e-12)

    def test_contact_rate_above_anchor(self, params):
        assert params.contact_rate(0.8) == pytest.approx(9.863333333333335, rel=1e-12)

    @pytest.mark.parametrize("ror", [0.4, 0.3, 0.1])
    def test_at_or_below_knee_loads_nothing(self, params, ror):
        assert params.contact_rate(ror) == 4.33

    def test_longitudinal_contact_does_not_load(self, three_module_layout, material, params):
        obj = ObjectState(ObjectSpec(17.5, 75.0), 0.0)  # spans the stroke ring too
        loaded = make_plant(three_module_layout, material, params, obj)
        empty = make_plant(three_module_layout, material, params)
        for plant in (loaded, empty):
            full(plant, 2, ticks=3000)
        assert pressure(loaded, 2) == pressure(empty, 2)

    def test_unknown_valve_rejected(self, three_module_layout, material, params):
        plant = make_plant(three_module_layout, material, params)
        with pytest.raises(ValueError, match="valve"):
            plant.set_valve(1, "Open")


class TestInflationOf:
    def test_compression_full_scale(self, three_module_layout, material, params):
        plant = make_plant(three_module_layout, material, params)
        full(plant, 1)
        assert inflation(plant, 1) == 17.25

    def test_compression_linear(self, three_module_layout, material, params):
        plant = make_plant(three_module_layout, material, params)
        assert inflation(plant, 1) == 0.0
        plant.set_valve(1, INFLATE)
        advance(plant, 1732)
        assert inflation(plant, 1) == (pressure(plant, 1) / 15.0) * 17.25
        assert inflation(plant, 1) == pytest.approx(17.25 * 1.732 * 4.33 / 15.0, rel=1e-9)

    def test_longitudinal_stroke(self, three_module_layout, material, params):
        plant = make_plant(three_module_layout, material, params)
        full(plant, 2)
        assert inflation(plant, 2) == 6.0
        plant.set_valve(2, DEFLATE)
        advance(plant, 834)
        assert inflation(plant, 2) == (pressure(plant, 2) / 15.0) * 6.0
        assert inflation(plant, 2) == pytest.approx((15.0 - 0.834 * 12.0) / 15.0 * 6.0, rel=1e-9)

    def test_unknown_kind_rejected(self, geometry):
        # a kind without a displacement law never reaches a plant
        with pytest.raises(ValueError, match="kind"):
            StationLayout((ModuleSpec(1, "Radial", geometry, 20.0, 0.0),))


class TestContactCheck:
    def test_reach_counts_the_boundary(self, three_module_layout, material, params):
        # full inflation is 17.25 mm: it exactly closes the gap of a 7.75 mm object,
        # and falls one ulp short of the gap of the next thinner one
        thinner = 25.0 - math.nextafter(17.25, math.inf)
        for r_o, grips in ((7.75, True), (thinner, False)):
            obj = ObjectState(ObjectSpec(r_o, 10.0), 0.0)
            plant = make_plant(three_module_layout, material, params, obj)
            full(plant, 1)
            assert supporters(plant) == (frozenset({1}) if grips else frozenset())

    @pytest.mark.parametrize("r_o", [17.5, 10.0, 7.75, 25.0 - math.nextafter(17.25, math.inf)])
    def test_contact_pressure_is_the_least_that_reaches(self, three_module_layout, material,
                                                        params, r_o):
        """The kernel's reach rule: a filling ring grips on exactly the ticks
        at or above the contact pressure (inf for an object too thin to
        reach), the plant's grip, which are the ticks on which its inflation
        closes the gap; one double below the contact pressure, it does not."""
        gap = 25.0 - r_o
        kpa = contact_pressure(three_module_layout.modules[0].geometry, material, 15.0, r_o)
        assert kpa == math.inf or (math.nextafter(kpa, 0.0) / 15.0 * 17.25
                                   < gap <= kpa / 15.0 * 17.25)
        obj = ObjectState(ObjectSpec(r_o, 60.0), 0.0)  # in rings 1 and 3
        plant = make_plant(three_module_layout, material, params, obj)
        assert plant.grip == kpa
        assert make_plant(three_module_layout, material, params, None).grip == math.inf
        plant.set_valve(1, INFLATE)
        traj = plant.trajectory(4000)  # to P_max
        assert traj.pressure[-1, 0] == 15.0
        assert (traj.contact[:, 0] == (traj.pressure[:, 0] >= kpa)).all()
        assert (traj.contact[:, 0] == (plant.inflation(traj.pressure)[:, 0] >= gap)).all()

    @settings(max_examples=300, deadline=None)
    @given(R=st.floats(10.0, 80.0), r_fraction=st.floats(0.2, 0.95), spacing=st.floats(0.0, 10.0),
           t=st.floats(0.5, 5.0), N=st.integers(2, 12), E=st.floats(10.0, 1000.0),
           ratio=st.floats(0.05, 1.5), P_max=st.floats(1.0, 100.0),
           r_o_fraction=st.floats(0.0, 1.0), P_fraction=st.floats(0.0, 1.0))
    def test_reach_is_a_pressure_threshold(self, R, r_fraction, spacing, t, N, E, ratio, P_max,
                                           r_o_fraction, P_fraction):
        """P >= contact_pressure holds exactly when P / P_max * d_full >= gap,
        the ring's inflation against the gap, for P in [0, P_max]: the
        contact pressure itself, the doubles on either side of it and any
        other."""
        r = R * r_fraction
        try:
            s = solve_chamber_length(R, r, spacing, N)
        except InfeasibleGeometryError:
            return
        g = RingGeometry(R, r, 1.5, spacing, t, s, N)
        material = SurrogateMaterial(E, 0.45, calibrate_kappa(g, E, ratio, P_max))
        r_o = r * r_o_fraction
        full, gap = full_compression_inflation(g, material, P_max), r - r_o
        kpa = contact_pressure(g, material, P_max, r_o)
        for P in (kpa, math.nextafter(kpa, -math.inf), math.nextafter(kpa, math.inf),
                  P_fraction * P_max):
            if 0.0 <= P <= P_max:
                assert (P >= kpa) == (P / P_max * full >= gap), P

    def test_span_overlap_must_be_positive(self, three_module_layout, material, params):
        # ring 3 spans [40, 60] mm; an object whose face merely touches it is not gripped
        for z, length, grips in ((60.0, 75.0, False), (59.999, 75.0, True), (30.0, 10.0, False)):
            obj = ObjectState(ObjectSpec(17.5, length), z)
            plant = make_plant(three_module_layout, material, params, obj)
            full(plant, 3)
            assert (3 in supporters(plant)) is grips

    def test_z_bottom_override_shifts_span(self, three_module_layout, material, params):
        # a stroke lifts ring 3 from [40, 60] to [46, 66]: contact follows the lifted span
        obj = ObjectState(ObjectSpec(17.5, 10.0), 62.0)
        plant = make_plant(three_module_layout, material, params, obj)
        full(plant, 3)
        assert supporters(plant) == frozenset()
        full(plant, 2)
        assert span(plant, 3) == (46.0, 66.0)
        assert supporters(plant) == frozenset({3})

    def test_longitudinal_module_rejected(self, three_module_layout, material, params):
        # a fully stroked longitudinal ring around the object never grips it
        obj = ObjectState(ObjectSpec(17.5, 75.0), 0.0)
        plant = make_plant(three_module_layout, material, params, obj)
        full(plant, 2)
        assert not plant.trajectory(0).contact[0].any()
        assert supporters(plant) == frozenset()


class TestTimeToContact:
    @pytest.mark.parametrize(
        "ror,expected",
        [
            (0.7, 1.5061753188071092),
            (0.4, 3.012350637614218),
            (0.8, 1.0041168792047395),
        ],
    )
    def test_frozen_values(self, geometry, material, params, ror, expected):
        assert time_to_contact(ror, params, geometry, material) == pytest.approx(expected, rel=1e-12)

    def test_touching_object_contacts_immediately(self, geometry, material, params):
        assert time_to_contact(1.0, params, geometry, material) == 0.0

    def test_too_thin_object_rejected(self, geometry, material, params):
        with pytest.raises(ValueError, match="too thin"):
            time_to_contact(0.2, params, geometry, material)


class TestPlantIntegration:
    def test_free_inflation_trajectory(self, three_module_layout, material, params):
        plant = make_plant(three_module_layout, material, params)
        plant.set_valve(1, INFLATE)
        advance(plant, 1500)
        assert pressure(plant, 1) == 6.49500000000018
        assert inflation(plant, 1) == (6.49500000000018 / 15.0) * 17.25

    def test_hold_freezes_pressure_exactly(self, three_module_layout, material, params):
        plant = make_plant(three_module_layout, material, params)
        plant.set_valve(1, INFLATE)
        advance(plant, 500)
        frozen = pressure(plant, 1)
        plant.set_valve(1, HOLD)
        advance(plant, 100)
        assert pressure(plant, 1) == frozen

    def test_pressure_clamps_at_limits(self, three_module_layout, material, params):
        plant = make_plant(three_module_layout, material, params)
        plant.set_valve(1, INFLATE)
        advance(plant, 4000)  # 4 s * 4.33 kPa/s well past P_max
        assert pressure(plant, 1) == 15.0
        assert inflation(plant, 1) == 17.25
        plant.set_valve(1, DEFLATE)
        advance(plant, 2000)
        assert pressure(plant, 1) == 0.0
        assert inflation(plant, 1) == 0.0

    def test_contact_switches_rate_next_tick(self, three_module_layout, material, params):
        obj = ObjectState(ObjectSpec(17.5, 75.0), 0.0)
        plant = make_plant(three_module_layout, material, params, obj)
        plant.set_valve(1, INFLATE)
        advance(plant, 2000)
        # reference: loaded rate first applies the tick after reach crosses the gap
        P, contact = 0.0, False
        for _ in range(2000):
            rate = 8.48 if contact else 4.33
            P = min(P + rate * 1e-3, 15.0)
            contact = P / 15.0 * 17.25 >= 7.5
        assert pressure(plant, 1) == P
        assert supporters(plant) == frozenset({1})

    def test_stroke_lifts_modules_above_only(self, three_module_layout, material, params):
        plant = make_plant(three_module_layout, material, params)
        plant.set_valve(2, INFLATE)
        advance(plant, 4000)
        assert inflation(plant, 2) == 6.0
        assert span(plant, 1) == (0.0, 20.0)
        assert span(plant, 2) == (20.0, 40.0)  # the stroking ring itself stays put
        assert span(plant, 3) == (46.0, 66.0)

    def test_vented_stroke_returns_to_rest_exactly(self, three_module_layout, material, params):
        plant = make_plant(three_module_layout, material, params)
        plant.set_valve(2, INFLATE)
        advance(plant, 1000)
        plant.set_valve(2, DEFLATE)
        advance(plant, 500)
        assert pressure(plant, 2) == 0.0
        assert span(plant, 3) == (40.0, 60.0)

    def test_object_rides_its_supporter(self, three_module_layout, material, params):
        obj = ObjectState(ObjectSpec(17.5, 30.0), 45.0)
        plant = make_plant(three_module_layout, material, params, obj)
        grip(plant, 3)
        assert supporters(plant) == frozenset({3})
        plant.set_valve(2, INFLATE)
        events = advance(plant, 1000)
        assert plant.object.z == pytest.approx(45.0 + inflation(plant, 2), abs=1e-9)
        assert events == []  # grip is carried, never re-broken
        assert supporters(plant) == frozenset({3})

    def test_release_drops_onto_inflated_ring_below(self, three_module_layout, material, params):
        obj = ObjectState(ObjectSpec(17.5, 50.0), 25.0)
        plant = make_plant(three_module_layout, material, params, obj)
        plant.set_valve(1, INFLATE)  # reaches full d but never overlaps the object
        plant.set_valve(3, INFLATE)
        advance(plant, 4000)
        assert supporters(plant) == frozenset({3})
        plant.set_valve(3, DEFLATE)
        drops = [text for _, text in advance(plant, 2000) if text.startswith("drop")]
        assert drops == ["drop to_z=20.000000"]
        assert plant.object.z == 20.0

    def test_release_with_no_ledge_drops_to_base(self, three_module_layout, material, params):
        obj = ObjectState(ObjectSpec(17.5, 30.0), 45.0)
        plant = make_plant(three_module_layout, material, params, obj)
        grip(plant, 3)
        plant.set_valve(3, DEFLATE)
        drops = [text for _, text in advance(plant, 2000) if text.startswith("drop")]
        assert drops == ["drop to_z=0.000000"]
        assert plant.object.z == 0.0

    def test_conflicting_supporters_follow_the_lowest(self, five_module_layout, material, params):
        obj = ObjectState(ObjectSpec(17.5, 75.0), 0.0)
        plant = make_plant(five_module_layout, material, params, obj)
        grip(plant, 1)
        grip(plant, 3)
        assert sorted(supporters(plant)) == [1, 3]
        plant.set_valve(2, INFLATE)
        events = advance(plant, 100)
        assert {text for _, text in events} == {"conflict supporters=1+3 following=1"}
        assert len(events) == 100  # flagged every moving tick
        assert plant.object.z == 0.0  # module 1 sits on the base and never moves

    def test_block_equals_single_steps(self, five_module_layout, material, params):
        """trajectory(n) and commit match n step() calls across a contact flip,
        a conflict and a drop, bit for bit, tick by tick."""
        single, block = (make_plant(five_module_layout, material, params,
                                    ObjectState(ObjectSpec(17.5, 75.0), 0.0)) for _ in range(2))
        schedule = [({1: INFLATE, 3: INFLATE}, 2000),  # both rings grip
                    ({2: INFLATE}, 100),  # the stroke lifts 3 but not 1: conflict
                    ({1: DEFLATE, 3: DEFLATE}, 2000)]  # both let go: drop
        ids = range(1, 6)
        stepped, blocked = [], []  # (events, P, d, z, supporters) per tick
        for commands, ticks in schedule:
            for mid, mode in commands.items():
                single.set_valve(mid, mode)
                block.set_valve(mid, mode)
            for _ in range(ticks):
                events = single.step()
                stepped.append((events, [pressure(single, i) for i in ids],
                                [inflation(single, i) for i in ids], single.object.z,
                                supporters(single)))
            left = ticks
            while left:
                traj = block.trajectory(left)
                n = len(traj) - 1
                mm = block.inflation(traj.pressure)
                for i in range(1, n + 1):
                    blocked.append(([], traj.pressure[i].tolist(),
                                    mm[i].tolist(), traj.object_z[i].item(),
                                    frozenset(k + 1 for k in range(5) if traj.contact[i, k])))
                blocked[-1][0].extend(block.commit(traj, n))
                left -= n
        texts = [text for events, *_ in stepped for _, text in events]
        assert "conflict supporters=1+3 following=1" in texts
        assert any(text.startswith("drop") for text in texts)
        assert {frozenset(), frozenset({1, 3})} <= {row[4] for row in stepped}
        assert blocked == stepped
        now, then = block.trajectory(0), single.trajectory(0)
        for name in ("pressure", "lift", "contact", "object_z"):
            assert getattr(now, name).tolist() == getattr(then, name).tolist(), name

    def test_set_valve_rejects_bad_input(self, three_module_layout, material, params):
        plant = make_plant(three_module_layout, material, params)
        with pytest.raises(ValueError, match="valve"):
            plant.set_valve(1, "Open")
        with pytest.raises(ValueError, match="module"):
            plant.set_valve(0, HOLD)
        with pytest.raises(ValueError, match="module"):
            plant.set_valve(99, HOLD)

    def test_commit_rejects_a_stale_trajectory(self, three_module_layout, material, params):
        plant = make_plant(three_module_layout, material, params)
        traj = plant.trajectory(10)
        plant.set_valve(1, INFLATE)  # a valve change makes the plant another state
        with pytest.raises(ValueError, match="trajectory is stale"):
            plant.commit(traj, 5)
        traj = plant.trajectory(10)
        plant.commit(traj, 5)
        with pytest.raises(ValueError, match="trajectory is stale"):
            plant.commit(traj, 10)
        assert plant.trajectory(0).pressure.tolist() == traj.pressure[5:6].tolist()

    @pytest.mark.parametrize("row", [-1, 11, 50])
    def test_commit_rejects_a_row_outside_the_trajectory(self, three_module_layout, material,
                                                         params, row):
        plant = make_plant(three_module_layout, material, params)
        plant.set_valve(1, INFLATE)
        traj = plant.trajectory(10)
        with pytest.raises(ValueError, match=f"row {row} outside a trajectory of 11 rows"):
            plant.commit(traj, row)
        assert plant.trajectory(0).pressure.tolist() == traj.pressure[:1].tolist()
        plant.commit(traj, 10)  # the refusals left the trajectory valid


class ReferencePlant:
    """The plant one tick at a time in plain Python floats, in the order of
    the plant module's docstring: pressures, inflations, lifts, the object,
    then contacts and a drop.  It shares only the rate and inflation laws
    with Plant, none of its integration."""

    def __init__(self, layout, material, params, obj):
        self.mods, self.params, self.spec = layout.modules, params, obj.spec
        self.full = [full_compression_inflation(m.geometry, material, params.P_max)
                     if m.kind == COMPRESSION else 0.3 * m.height_h for m in self.mods]
        self.gap = [m.geometry.inner_radius_r - obj.spec.radius_r_o for m in self.mods]
        self.k_contact = params.contact_rate(obj.spec.radius_r_o
                                             / self.mods[0].geometry.inner_radius_r)
        n = len(self.mods)
        self.P, self.d, self.lift, self.contact = [0.0] * n, [0.0] * n, [0.0] * n, [False] * n
        self.z = obj.z

    def step(self, valves):
        """One tick under valves (a mode per module); returns its event texts."""
        p, events = self.params, []
        for i, v in enumerate(valves):  # 1) last tick's contact selects the fill rate
            if v == INFLATE:
                rate = self.k_contact if self.contact[i] else p.k_free
                self.P[i] = min(self.P[i] + rate * p.dt, p.P_max)
            elif v == DEFLATE:
                self.P[i] = max(self.P[i] - p.k_vent * p.dt, 0.0)
        self.d = [P / p.P_max * full for P, full in zip(self.P, self.full)]  # 2)
        old, run = self.lift, 0.0
        self.lift = []
        for m, d in zip(self.mods, self.d):  # 3) a stroke lifts the modules above it
            self.lift.append(run)
            if m.kind == LONGITUDINAL:
                run = run + d
        held = [i for i, c in enumerate(self.contact) if c]
        if held:  # 4) the object follows its lowest supporter
            moves = [self.lift[i] - old[i] for i in held]
            if max(moves) - min(moves) > 1e-12:
                ids = "+".join(str(i + 1) for i in held)
                events.append(f"conflict supporters={ids} following={held[0] + 1}")
            if moves[0] != 0.0:
                self.z = self.z + moves[0]
        self.contact = [m.kind == COMPRESSION and self.d[i] >= self.gap[i]  # 5)
                        and self.z < m.z_origin + self.lift[i] + m.height_h
                        and self.z + self.spec.length_L_o > m.z_origin + self.lift[i]
                        for i, m in enumerate(self.mods)]
        if held and not any(self.contact):
            land = 0.0
            for i, m in enumerate(self.mods):
                top = m.z_origin + self.lift[i] + m.height_h
                if m.kind == COMPRESSION and self.d[i] >= self.gap[i] and land < top <= self.z:
                    land = top
            self.z = land
            events.append(f"drop to_z={land:.6f}")
        return events

    def row(self):
        return ([x.hex() for x in self.P], [x.hex() for x in self.d],
                [x.hex() for x in self.lift], self.z.hex(), self.contact)


def trajectory_bits(traj):
    """Every array of a trajectory, as bytes."""
    return [a.tobytes() for a in (traj.pressure, traj.lift, traj.contact, traj.object_z)
            if a is not None]


def kernel_and_reference_rows(layout, material, params, obj, schedule, block, hold=(False,)):
    """Run a schedule of ({module_id: mode}, ticks) steps through Plant, in
    trajectories of at most block steps, and through ReferencePlant; returns
    both as per-tick (row with floats as hex, event texts) lists.

    hold says, trajectory by trajectory in turn, whether it is kept to the
    end, where its arrays must still hold the bits they came with, or let go
    of before the next one, so that the plant writes that one into its storage.
    """
    plant = Plant(layout, ObjectState(obj.spec, obj.z), params, material)
    ref = ReferencePlant(layout, material, params, obj)
    valves = [HOLD] * len(layout.modules)
    got, want, held = [], [], []
    holds = itertools.cycle(hold)
    for commands, ticks in schedule:
        for mid, mode in commands.items():
            plant.set_valve(mid, mode)
            valves[mid - 1] = mode
        want += [(ref.step(valves), ref.row()) for _ in range(ticks)]
        while len(got) < len(want):
            traj = plant.trajectory(min(block, len(want) - len(got)))
            mm = plant.inflation(traj.pressure)
            for k in range(1, len(traj)):
                got.append(([], ([x.hex() for x in traj.pressure[k].tolist()],
                                 [x.hex() for x in mm[k].tolist()],
                                 [x.hex() for x in traj.lift[k].tolist()],
                                 traj.object_z[k].item().hex(), traj.contact[k].tolist())))
            got[-1][0].extend(text for _, text in plant.commit(traj, len(traj) - 1))
            if next(holds):
                held.append((traj, trajectory_bits(traj)))
            del traj
    for traj, bits in held:
        assert trajectory_bits(traj) == bits
    return got, want


class TestKernelAgainstReference:
    def test_every_path_follows_the_reference(self, five_module_layout, material, params):
        """Pinned rings, HOLD mid-ramp, an object that rides a ring into
        another ring's span, a conflict and a drop: each row equal to the
        per-tick reference bit for bit."""
        obj = ObjectState(ObjectSpec(17.5, 30.0), 22.0)  # above ring 1, inside ring 3
        schedule = [({1: DEFLATE, 2: INFLATE}, 100),  # ring 1 pinned at 0.0; 2 ramps
                    ({2: HOLD}, 50),  # the stroke holds mid-ramp
                    ({1: INFLATE, 2: INFLATE, 3: INFLATE}, 4000),  # 3 grips and rides up,
                    # 1 fills clear of the object, both pin at P_max
                    ({2: DEFLATE}, 1500),  # 3 sinks the object into ring 1: conflict
                    ({1: DEFLATE, 3: DEFLATE}, 2000)]  # both let go: drop
        got, want = kernel_and_reference_rows(five_module_layout, material, params, obj,
                                              schedule, 1024)
        texts = [text for events, _ in want for text in events]
        assert "conflict supporters=1+3 following=1" in texts
        assert "drop to_z=0.000000" in texts
        rows = [row for _, row in want]
        zero, full = (0.0).hex(), (15.0).hex()
        assert rows[99][0][0] == zero and rows[5149][0][0] == rows[5149][0][2] == full
        assert rows[99][0][1] == rows[149][0][1] != zero
        assert any(not a[4][0] and b[4][0] and a[3] != b[3] for a, b in zip(rows, rows[1:]))
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(
        count=st.sampled_from([5, 9]),
        start=st.sampled_from([(75.0, 0.0), (30.0, 22.0), (30.0, 45.0), (115.0, 20.0)]),
        schedule=st.lists(st.tuples(
            st.dictionaries(st.integers(0, 8), st.sampled_from(VALVE_MODES), max_size=3),
            st.integers(1, 300)), min_size=1, max_size=6),
        block=st.sampled_from([1, 7, 64, 1024]),
        hold=st.lists(st.booleans(), min_size=1, max_size=8),
    )
    # every path, as in the test above, with every other trajectory kept
    @example(count=9, start=(30.0, 22.0), block=64, hold=[True, False],
             schedule=[({0: DEFLATE, 1: INFLATE}, 10), ({1: HOLD}, 5),
                       ({0: INFLATE, 1: INFLATE, 2: INFLATE}, 400), ({1: DEFLATE}, 150),
                       ({0: DEFLATE, 2: DEFLATE}, 200)])
    # ring 1 pins at P_max in the first stretch, and ring 3's grip starts a second one
    # in which ring 1 keeps the rows that the first stretch wrote at the bound
    @example(count=5, start=(30.0, 45.0), block=1024, hold=[False],
             schedule=[({0: INFLATE}, 340), ({2: INFLATE}, 300)])
    # ring 3 grips on the last tick before it vents, so it lets go at its stretch's
    # first row and the object drops onto ring 1's top; the next call starts from row 0
    # holding contacts from before the drop, and ring 1, in reach, holds still exactly
    # at the edge of its span
    @example(count=5, start=(115.0, 20.0), block=1024, hold=[False],
             schedule=[({0: INFLATE}, 340), ({0: HOLD, 2: INFLATE}, 151), ({2: DEFLATE}, 100)])
    # strokes 2, 4 and 6 lift ring 7 clear of the object's top, then vent while ring 7
    # fills: its reach flips mid-stretch, where only its moving span says it grips
    @example(count=9, start=(115.0, 20.0), block=1024, hold=[False],
             schedule=[({1: INFLATE, 3: INFLATE, 5: INFLATE}, 400),
                       ({1: DEFLATE, 3: DEFLATE, 5: DEFLATE}, 1), ({6: INFLATE}, 300)])
    # hold keeps trajectories alive or lets them go at random, so the kernel writes
    # into fresh memory or into its storage, and a kept one must keep its bits
    def test_random_schedules_follow_the_reference(self, count, start, schedule, block, hold):
        g = RingGeometry(**NOMINAL)
        mat = SurrogateMaterial(100.0, 0.45, calibrate_kappa(g, 100.0, 0.69, 15.0))
        params = PlantParams(dt=0.01)  # coarse ticks, so rings pin within a schedule
        obj = ObjectState(ObjectSpec(17.5, start[0]), start[1])
        steps = [({mid % count + 1: mode for mid, mode in commands.items()}, ticks)
                 for commands, ticks in schedule]
        got, want = kernel_and_reference_rows(build_station(g, count, 20.0, 20.0), mat,
                                              params, obj, steps, block, hold)
        assert got == want


class TestTrajectoryStorage:
    """Plant.trajectory writes into the plant's storage while no view of it is alive."""

    def test_a_released_trajectory_leaves_its_memory_to_the_next(self, five_module_layout,
                                                                 material, params):
        plant = make_plant(five_module_layout, material, params,
                           ObjectState(ObjectSpec(17.5, 30.0), 22.0))
        plant.set_valve(1, INFLATE)
        traj = plant.trajectory(100)
        address = data_address(traj.pressure)
        plant.commit(traj, 60)
        del traj
        taker = np.empty((16, 101))  # takes the storage's memory, had the plant freed it
        assert data_address(plant.trajectory(100).pressure) == address
        assert data_address(plant.trajectory(20).pressure) == address != data_address(taker)

    @pytest.mark.parametrize("kept", ["trajectory", "pressure", "contact", "object_z"])
    def test_a_held_trajectory_keeps_its_bits(self, five_module_layout, material, params, kept):
        """A trajectory, or one view of its storage, held across the next lookahead."""
        plant = make_plant(five_module_layout, material, params,
                           ObjectState(ObjectSpec(17.5, 30.0), 22.0))
        plant.set_valve(3, INFLATE)
        traj = plant.trajectory(1500)  # ring 3 grips, and its rate changes
        held = traj if kept == "trajectory" else getattr(traj, kept)
        bits = trajectory_bits(traj)
        plant.commit(traj, 1000)
        del traj
        plant.set_valve(2, INFLATE)  # the stroke lifts ring 3 and the object with it
        nxt = plant.trajectory(1500)
        assert nxt.object_z[-1] > nxt.object_z[0]
        if kept == "trajectory":
            assert trajectory_bits(held) == bits
        else:
            assert held.tobytes() in bits


class TestPlantProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        commands=st.lists(
            st.tuples(st.integers(1, 3), st.sampled_from([INFLATE, HOLD, DEFLATE])),
            max_size=30,
        )
    )
    def test_bounds_and_support_soundness(self, commands):
        g = RingGeometry(**NOMINAL)
        mat = SurrogateMaterial(100.0, 0.45, calibrate_kappa(g, 100.0, 0.69, 15.0))
        params = PlantParams()
        layout = build_station(g, 3, 20.0, 20.0)
        obj = ObjectState(ObjectSpec(17.5, 75.0), 0.0)
        plant = Plant(layout, obj, params, mat)

        for mid, mode in commands:
            plant.set_valve(mid, mode)
            left = 25
            while left:
                traj = plant.trajectory(left)
                mm = plant.inflation(traj.pressure)
                for k in range(1, len(traj)):  # every state the steps pass through
                    for i, m in enumerate(layout.modules):
                        P = traj.pressure[k, i]
                        assert 0.0 <= P <= params.P_max
                        full = 17.25 if m.kind == COMPRESSION else 6.0
                        assert mm[k, i] == (P / params.P_max) * full
                        if traj.contact[k, i]:  # a supporter
                            assert m.kind == COMPRESSION
                            assert mm[k, i] >= 25.0 - 17.5
                            lo = m.z_origin + traj.lift[k, i]
                            z = traj.object_z[k]
                            assert z < lo + m.height_h and z + 75.0 > lo
                    assert traj.object_z[k] >= -1e-9
                plant.commit(traj, len(traj) - 1)
                left -= len(traj) - 1
