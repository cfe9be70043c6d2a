import json
import random
from dataclasses import replace

import pytest

from conftest import ORACLE_SHAPES
from oracles import brute_force_bin_pack
from pickopt import (Instance, Order, Pick, ValidationError, WarehouseLayout, batching_to_solution,
                     bin_pack_exact, build_graph, build_model, cw2_batching, first_fit_decreasing,
                     generate_instance, load_instance, save_instance, seed_batching,
                     solve_exact, solve_no_reversal_exact, validate_solution)
from pickopt.exact import solution_to_dict
from pickopt.instance import (_lower_bound, canonical_json_bytes, instance_from_dict,
                              instance_to_dict)

LAYOUT = WarehouseLayout(2, 1, 2, 1, 2)


def test_generation_is_deterministic(tmp_path):
    a = generate_instance(LAYOUT, 4, 5, seed=7)
    b = generate_instance(LAYOUT, 4, 5, seed=7)
    assert canonical_json_bytes(instance_to_dict(a)) == canonical_json_bytes(instance_to_dict(b))
    c = generate_instance(LAYOUT, 4, 5, seed=8)
    assert instance_to_dict(a) != instance_to_dict(c)


def test_generated_orders_fit_the_trolley():
    inst = generate_instance(LAYOUT, 10, 5, seed=3)
    assert all(1 <= o.size <= inst.capacity for o in inst.orders)
    assert all(o.picks for o in inst.orders)


def test_picker_count_is_exact_bin_packing():
    inst = generate_instance(LAYOUT, 5, 20, seed=42)
    sizes = [o.size for o in inst.orders]
    assert inst.pickers == brute_force_bin_pack(sizes, inst.capacity)


def test_mean_picks_grows_with_delta():
    small = generate_instance(WarehouseLayout(3, 2, 3, 1, 2), 40, 5, seed=1)
    large = generate_instance(WarehouseLayout(3, 2, 3, 1, 2), 40, 20, seed=1)
    mean = lambda inst: sum(len(o.picks) for o in inst.orders) / len(inst.orders)
    assert mean(large) > mean(small)


def test_round_trip(tmp_path):
    inst = generate_instance(LAYOUT, 3, 10, seed=5)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again == inst
    save_instance(again, tmp_path / "inst2.json")
    assert (tmp_path / "inst2.json").read_bytes() == path.read_bytes()


def _doc():
    return {
        "format": "pickopt-instance-v1",
        "layout": {"aisles": 2, "blocks": 1, "locs_per_subaisle": 2,
                   "loc_spacing": 1, "aisle_spacing": 2},
        "capacity": 8,
        "orders": [{"id": 0, "size": 3,
                    "picks": [{"aisle": 0, "block": 0, "slot": 1, "side": 0}]}],
    }


def test_rejects_out_of_range_coordinates():
    doc = _doc()
    doc["orders"][0]["picks"][0]["aisle"] = 2
    with pytest.raises(ValidationError, match=r"orders\[0\].picks\[0\].aisle"):
        instance_from_dict(doc)


def test_rejects_oversized_order():
    doc = _doc()
    doc["orders"][0]["size"] = 9
    with pytest.raises(ValidationError, match="exceeds capacity"):
        instance_from_dict(doc)


def test_rejects_bad_format_and_missing_fields():
    doc = _doc()
    doc["format"] = "something-else"
    with pytest.raises(ValidationError, match="format"):
        instance_from_dict(doc)
    doc = _doc()
    del doc["layout"]["aisles"]
    with pytest.raises(ValidationError, match="layout.aisles"):
        instance_from_dict(doc)


def test_pickers_override_is_kept():
    doc = _doc()
    doc["pickers"] = 4
    inst = instance_from_dict(doc)
    assert inst.pickers == 4


def test_zero_orders_rejected():
    with pytest.raises(ValidationError):
        generate_instance(LAYOUT, 0, 5, seed=0)
    doc = _doc()
    doc["orders"] = []
    with pytest.raises(ValidationError):
        instance_from_dict(doc)


def test_non_finite_spacing_in_a_file_is_rejected(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(_doc()).replace('"loc_spacing": 1', '"loc_spacing": NaN'))
    with pytest.raises(ValidationError, match="loc_spacing must be a finite number"):
        load_instance(path)


def test_integral_spacing_is_stored_as_int(tmp_path):
    layout = WarehouseLayout(2, 1, 2, 1.0, 2.0)
    assert layout == LAYOUT
    assert type(layout.loc_spacing) is int and type(layout.aisle_spacing) is int
    half = WarehouseLayout(2, 1, 2, 0.5, 2.5)
    assert (half.loc_spacing, half.aisle_spacing) == (0.5, 2.5)
    # a file holding 2.0 re-saves as 2, the bytes of the int spelling
    for name, text in (("int", json.dumps(_doc())),
                       ("float", json.dumps(_doc()).replace('"aisle_spacing": 2',
                                                            '"aisle_spacing": 2.0'))):
        (tmp_path / f"{name}.json").write_text(text)
        save_instance(load_instance(tmp_path / f"{name}.json"), tmp_path / f"{name}_again.json")
    assert b'2.0' in (tmp_path / "float.json").read_bytes()
    assert (tmp_path / "float_again.json").read_bytes() == (tmp_path / "int_again.json").read_bytes()
    assert b'"aisle_spacing": 2,' in (tmp_path / "float_again.json").read_bytes()


def test_malformed_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_instance(path)


def test_pick_vertices_map_to_chain(tmp_path):
    inst = instance_from_dict(_doc())
    g = build_graph(inst.layout)
    verts = inst.all_pick_vertices(g)[inst.orders[0].id]
    assert verts == {g.subaisles[0].locs[1]}


@pytest.mark.parametrize("name, value, message", [
    ("aisle", 2, "coordinate out of range"), ("block", -1, "coordinate out of range"),
    ("slot", 2, "coordinate out of range"), ("side", 2, "coordinate out of range"),
    ("aisle", True, "wrong type bool"), ("slot", 1.0, "wrong type float")])
def test_pick_coordinates_are_checked_when_an_instance_is_made(name, value, message):
    good = Pick(1, 0, 1, 0)
    orders = (Order(7, 1, (good,)), Order(3, 1, (good, replace(good, **{name: value}))))
    with pytest.raises(ValidationError,
                       match=rf"^orders\[1\]\.picks\[1\]\.{name}: {message}$"):
        Instance(LAYOUT, orders, 8, 2)
    # both sides of an aisle share one chain vertex
    inst = Instance(LAYOUT, (Order(0, 1, (good, replace(good, side=1))),), 8, 1)
    assert len(inst.all_pick_vertices(build_graph(LAYOUT))[0]) == 1


@pytest.mark.parametrize("args, message", [
    ((True, 1, 8, 1), r"orders\[0\]\.id: wrong type bool"),
    (("x", 1, 8, 1), r"orders\[0\]\.id: wrong type str"),
    (([0], 1, 8, 1), r"orders\[0\]\.id: wrong type list"),
    ((0, 1.5, 8, 1), r"orders\[0\]\.size: wrong type float"),
    ((0, False, 8, 1), r"orders\[0\]\.size: wrong type bool"),
    ((0, 1, 8.5, 1), r"capacity: wrong type float"),
    ((0, 1, True, 1), r"capacity: wrong type bool"),
    ((0, 1, 8, 1.0), r"pickers: wrong type float"),
    ((0, 1, 8, "2"), r"pickers: wrong type str")])
def test_ids_sizes_capacity_and_pickers_must_be_ints(args, message):
    oid, size, capacity, pickers = args
    pick = (Pick(0, 0, 0, 0),)
    with pytest.raises(ValidationError, match=rf"^{message}$"):
        Instance(LAYOUT, (Order(oid, size, pick),), capacity, pickers)


def _stdlib_json_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("ascii")


def test_canonical_json_is_the_stdlib_indented_text():
    docs = [{}, {"empty": [], "nested": [[], {}, [1, {"s": 'q"[{,\\'}]], "x": -0.5,
                 "y": None, "z": True, "tuple": (1, ())}]
    for k, shape in enumerate(ORACLE_SHAPES):
        for spacing in (1, 2, 0.3):
            layout = WarehouseLayout(*shape, 1, spacing)
            inst = generate_instance(layout, 3, 10, seed=k)
            # one picker more than bin packing needs leaves an empty batch
            inst = replace(inst, pickers=inst.pickers + 1)
            graph = build_graph(layout)
            docs += [instance_to_dict(inst), solution_to_dict(solve_exact(inst, graph), graph)]
    assert any(batch["orders"] == [] for doc in docs for batch in doc.get("batches", ()))
    for doc in docs:
        assert canonical_json_bytes(doc) == _stdlib_json_bytes(doc)


def test_resolved_picks_are_the_chain_vertices(acceptance_suite):
    for inst, g in acceptance_suite:
        n = inst.layout.n_aisles
        picks = inst.all_pick_vertices(g)
        assert list(picks) == list(inst.order_ids)
        for o in inst.orders:
            assert picks[o.id] == {g.subaisles[p.block * n + p.aisle].locs[p.slot]
                                   for p in o.picks}
        with pytest.raises(TypeError):
            picks[o.id] = frozenset()
    other = build_graph(replace(inst.layout, n_aisles=inst.layout.n_aisles + 1))
    with pytest.raises(ValidationError, match="not the instance's"):
        inst.all_pick_vertices(other)


def test_picks_are_resolved_once(monkeypatch):
    inst = generate_instance(LAYOUT, 4, 10, seed=3)
    g = build_graph(LAYOUT)
    calls = []
    location = WarehouseLayout.location
    monkeypatch.setattr(WarehouseLayout, "location",
                        lambda *args: calls.append(args) or location(*args))
    solve_exact(inst, g)
    solve_no_reversal_exact(inst, g)
    build_model(inst, g, "P_G")
    for batching in (seed_batching(inst, graph=g), cw2_batching(inst, graph=g)):
        validate_solution(inst, g, batching_to_solution(inst, g, batching.batches))
    assert calls == []
    Instance(LAYOUT, inst.orders, inst.capacity, inst.pickers)
    assert len(calls) == sum(len(o.picks) for o in inst.orders)


def test_bin_pack_examples():
    assert bin_pack_exact([3, 3, 3], 8) == 2
    assert bin_pack_exact([5, 4, 3], 8) == 2
    assert bin_pack_exact([8, 8, 8], 8) == 3
    with pytest.raises(ValidationError, match="infeasible"):
        bin_pack_exact([9], 8)


def test_bin_pack_matches_brute_force():
    rng = random.Random(17)
    for _ in range(25):
        sizes = [1 + rng.randrange(8) for _ in range(1 + rng.randrange(12))]
        assert bin_pack_exact(sizes, 8) == brute_force_bin_pack(sizes, 8)
    # items above half the capacity, where the L2 bound exceeds ceil(sum / 8)
    assert bin_pack_exact([5, 5, 5, 4, 4, 4], 8) == 5 and _lower_bound([5, 5, 5, 4, 4, 4], 8) == 5
    above_l1 = 0
    for _ in range(40):
        sizes = [3 + rng.randrange(6) for _ in range(1 + rng.randrange(10))]
        lower, optimum = _lower_bound(sizes, 8), brute_force_bin_pack(sizes, 8)
        assert -(-sum(sizes) // 8) <= lower <= optimum == bin_pack_exact(sizes, 8)
        above_l1 += lower > -(-sum(sizes) // 8)
    assert above_l1 >= 10


def test_bin_pack_ffd_is_upper_bound():
    rng = random.Random(18)
    for _ in range(20):
        sizes = [1 + rng.randrange(8) for _ in range(10)]
        assert bin_pack_exact(sizes, 8) <= first_fit_decreasing(sizes, 8)
