import copy
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (behaviors_close, make_svetlichny, oracle_orbit_forms,
                      random_local_mixture, random_ns_box,
                      random_signaling_box, sequential_load_catalog,
                      subset_loop_reports)
from icbox import behaviors as bh
from icbox.criteria import _UFFINK3_WEIGHTS
from icbox.protocol import bias_weights


def test_tuple_index_roundtrip():
    for width in (1, 2, 3, 4):
        for idx in range(2 ** width):
            bits = bh.index_to_tuple(idx, width)
            assert len(bits) == width
            assert bh.tuple_to_index(bits) == idx
    # party 1 is the most significant position
    assert bh.tuple_to_index((1, 0, 0)) == 4
    assert bh.index_to_tuple(1, 3) == (0, 0, 1)


def test_named_boxes_validate():
    boxes = [bh.named_box("pr"),
             bh.named_box("box45", parties=3),
             bh.named_box("box45", parties=4),
             bh.named_box("white", parties=2),
             bh.named_box("white", parties=4),
             bh.named_box("deterministic-zero", parties=3),
             bh.named_box("isotropic", parties=3, bias=0.7)]
    for b in boxes:
        report = bh.validate(b)
        assert report.ok, report.summary()


def test_pr_table():
    pr = bh.named_box("pr")
    for x, a, p in pr.entries():
        want = 0.5 if (a[0] ^ a[1]) == (x[0] & x[1]) else 0.0
        assert p == want
    assert np.array_equal(pr.table, bh.named_box("box45", parties=2).table)
    with pytest.raises(ValueError, match="bipartite"):
        bh.named_box("pr", parties=3)
    with pytest.raises(TypeError):
        bh.named_box("pr", size=2)   # parties and bias are the only keywords


def test_box45_table():
    # ⊕_k a_k = (x1 ⊕ ... ⊕ x_{N-1}) x_N, checked input by input
    for n in range(2, 7):
        b = bh.named_box("box45", parties=n)
        for x, a, p in b.entries():
            cond = 0
            for xk in x[:-1]:
                cond ^= xk & x[-1]
            want = 2.0 ** (1 - n) if sum(a) % 2 == cond else 0.0
            assert p == want


def test_white_and_detzero_tables():
    w = bh.named_box("white", parties=3)
    assert np.all(w.table == 1.0 / 8)
    d = bh.named_box("deterministic-zero", parties=3)
    assert np.all(d.table[:, 0] == 1.0)
    assert d.table.sum() == 8.0


def test_isotropic_entries_and_domain():
    b = bh.named_box("isotropic", parties=3, bias=0.7)
    # parity-condition entries get E/4 + (1-E)/8, the rest (1-E)/8
    assert b.prob((0, 0, 0), (0, 0, 0)) == pytest.approx(0.2125, abs=1e-15)
    assert b.prob((0, 0, 0), (0, 0, 1)) == pytest.approx(0.0375, abs=1e-15)
    with pytest.raises(ValueError):
        bh.named_box("isotropic", parties=3, bias=1.2)
    with pytest.raises(ValueError):
        bh.named_box("isotropic", parties=3, bias=-0.1)
    with pytest.raises(ValueError):
        bh.named_box("no-such-box")


def test_signaling_box_detected():
    # Alice outputs Bob's input: blatantly signaling, perfectly normalized
    t = np.zeros((4, 4))
    for xi, (x, y) in enumerate(bh.bit_tuples(2)):
        t[xi, bh.tuple_to_index((y, 0))] = 1.0
    report = bh.validate(bh.Behavior(2, t))
    assert not report.ok
    assert any(v.constraint == "no-signaling" for v in report.violations)
    assert "no-signaling" in report.summary()


def test_normalization_and_negativity_detected():
    t = np.full((4, 4), 1.0 / 4)
    t[0, 0] = -1e-6
    report = bh.validate(bh.Behavior(2, t))
    constraints = {v.constraint for v in report.violations}
    assert "nonnegativity" in constraints
    assert "normalization" in constraints


def test_tiny_negative_clamped():
    t = np.full((4, 4), 1.0 / 4)
    t[2, 1] = -5e-13
    b = bh.Behavior(2, t)
    assert b.table[2, 1] == 0.0
    # clamp only; the sum deficit stays visible to validate()
    assert bh.validate(b, atol=1e-14).violations[0].constraint == "normalization"


def test_structural_rejections():
    with pytest.raises(bh.StructureError):
        bh.Behavior(2, np.zeros((4, 3)))
    t = np.full((4, 4), 1.0 / 4)
    t[0, 0] = np.nan
    with pytest.raises(bh.StructureError):
        bh.Behavior(2, t)
    with pytest.raises(bh.StructureError):
        bh.Behavior(1, np.zeros((2, 2)))
    with pytest.raises(bh.StructureError):
        bh.Behavior(7, np.zeros((128, 128)))


def test_table_read_only():
    b = bh.named_box("pr")
    with pytest.raises(ValueError):
        b.table[0, 0] = 1.0


def test_mix_values_and_errors():
    m = bh.mix(((0.75, bh.named_box("pr")), (0.25, bh.named_box("white", parties=2))))
    assert m.prob((0, 0), (0, 0)) == pytest.approx(0.4375, abs=1e-15)
    assert bh.validate(m).ok
    with pytest.raises(ValueError):
        bh.mix(((0.5, bh.named_box("pr")), (0.4, bh.named_box("white", parties=2))))
    with pytest.raises(ValueError):
        bh.mix(((0.5, bh.named_box("pr")), (0.5, bh.named_box("white", parties=3))))
    with pytest.raises(ValueError):
        bh.mix(())


def test_correlators():
    pr = bh.named_box("pr")
    for x in bh.bit_tuples(2):
        want = -1.0 if (x[0] & x[1]) else 1.0
        assert bh.correlator(pr, x) == want
    b45 = bh.named_box("box45", parties=3)
    for x in bh.bit_tuples(3):
        want = -1.0 if ((x[0] ^ x[1]) & x[2]) else 1.0
        assert bh.correlator(b45, x) == want


def test_local_deterministic_enumeration():
    boxes2 = list(bh.all_local_deterministic(2))
    boxes3 = list(bh.all_local_deterministic(3))
    assert len(boxes2) == 16
    assert len(boxes3) == 64
    for b in boxes3:
        assert bh.validate(b).ok
        assert np.all((b.table == 0.0) | (b.table == 1.0))
    with pytest.raises(ValueError):
        bh.local_deterministic(3, ((0, 0), (1, 1)))


def test_relabelings_are_involutive_and_preserve_ns():
    rng = np.random.default_rng(11)
    b = random_local_mixture(rng, 3, extremal=bh.named_box("box45", parties=3),
                             extremal_weight=0.5)
    assert behaviors_close(
        bh.permute_parties(bh.permute_parties(b, (1, 2, 0)), (2, 0, 1)), b)
    assert behaviors_close(
        bh.flip_inputs(bh.flip_inputs(b, (1, 0, 1)), (1, 0, 1)), b)
    roundtrip = bh.relabel_outputs(
        bh.relabel_outputs(b, (1, 0, 1), (0, 1, 1)), (1, 0, 1), (0, 1, 1))
    assert behaviors_close(roundtrip, b)
    for _ in range(10):
        perm = tuple(rng.permutation(3).tolist())
        masks = rng.integers(0, 2, size=9).tolist()
        v = bh.permute_parties(b, perm)
        v = bh.flip_inputs(v, masks[:3])
        v = bh.relabel_outputs(v, masks[3:6], masks[6:9])
        assert bh.validate(v).ok


def test_relabeling_index_maps():
    maps2 = bh.relabeling_index_maps(2)
    maps3 = bh.relabeling_index_maps(3)
    assert maps2.shape == (2 * 4 * 16, 16)
    assert maps3.shape == (6 * 8 * 64, 64)
    idx = np.arange(64)
    sample = np.random.default_rng(3).choice(maps3.shape[0], 200, replace=False)
    for row in maps3[sample]:
        assert np.array_equal(np.sort(row), idx)
    # white noise is a fixed point of the whole group
    w = bh.named_box("white", parties=3).table.ravel()
    assert np.allclose(w[maps3], w)
    # every variant of an extremal box is still a valid behavior
    flat = bh.named_box("box45", parties=3).table.ravel()
    for row in maps3[sample[:40]]:
        assert bh.validate(bh.Behavior(3, flat[row].reshape(8, 8))).ok


def _relabeled_entry_source(n, perm, flip, beta, alpha, x, a):
    """Source (x, a) of one relabeled entry, one party at a time."""
    xs, as_ = bh.index_to_tuple(x, n), bh.index_to_tuple(a, n)
    fl, be, al = (bh.index_to_tuple(m, n) for m in (flip, beta, alpha))
    src_x, src_a = [0] * n, [0] * n
    for i in range(n):
        src_x[perm[i]] = xs[i] ^ fl[i]
        src_a[perm[i]] = as_[i] ^ be[i] ^ (al[i] & xs[i])
    return bh.tuple_to_index(src_x) * 2 ** n + bh.tuple_to_index(src_a)


@pytest.mark.parametrize("n", [2, 3])
def test_relabeling_index_map_rows(n):
    # row order (permutation, flip, beta, alpha) is what uffink-3 reports as
    # argmax_variant
    maps = bh.relabeling_index_maps(n)
    perms = list(itertools.permutations(range(n)))
    rows = np.random.default_rng(n).choice(maps.shape[0], 60, replace=False)
    for g in rows:
        rest, alpha = divmod(int(g), 2 ** n)
        rest, beta = divmod(rest, 2 ** n)
        p, flip = divmod(rest, 2 ** n)
        want = [_relabeled_entry_source(n, perms[p], flip, beta, alpha,
                                        x, a)
                for x in range(2 ** n) for a in range(2 ** n)]
        assert maps[g].tolist() == want


def _expand_beta(forms: np.ndarray, n: int) -> np.ndarray:
    """orbit_forms rows (permutation, flip), j, alpha -> every orbit row
    (permutation, flip, beta, alpha) by j, the beta rows negated by |beta|."""
    signs = 1.0 - 2.0 * bh.PARITY[:2 ** n]
    full = forms.transpose(0, 2, 1)[:, None] * signs[None, :, None, None]
    return full.reshape(-1, forms.shape[1])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_forms_match_relabeled_tables(n):
    b = random_ns_box(np.random.default_rng(40 + n), n)
    weights = [bias_weights(n)] + ([_UFFINK3_WEIGHTS] if n == 3 else [])
    for w in weights:
        want = oracle_orbit_forms(b, w)
        got = _expand_beta(bh.orbit_forms(b, w), n)
        assert got.shape == want.shape == (math.factorial(n) * 8 ** n, 2)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 1e-15 * scale
        values = (want ** 2).sum(axis=1)
        assert np.abs((got ** 2).sum(axis=1) - values).max() <= (
            1e-15 * max(1.0, float(values.max())))


def test_orbit_index_size_and_party_limit():
    # the (N!, 2^N) table of permuted bits, which the gather index reads
    assert bh._permuted_bits(6).nbytes <= 360 * 2 ** 10
    assert bh._permuted_bits(3).shape == (6, 8)
    assert not bh._permuted_bits(3).flags.writeable
    for n in (1, 5, 6):
        with pytest.raises(ValueError, match="2 to 4 parties"):
            bh.relabeling_index_maps(n)


def test_relabeling_masks_need_one_bit_per_party():
    b = bh.named_box("box45", parties=3)
    with pytest.raises(ValueError):
        bh.flip_inputs(b, (1, 0))
    with pytest.raises(ValueError):
        bh.relabel_outputs(b, (1, 0, 1, 0))


_ISO = bh.named_box("isotropic", bias=0.8)


@pytest.mark.parametrize("call", [
    lambda: bh.correlator(_ISO, (1,)),
    lambda: bh.correlator(_ISO, (2, 0, 1)),
    lambda: bh.flip_inputs(_ISO, (2, 0, 0)),
    lambda: bh.relabel_outputs(_ISO, (0, 0, 0), (0, 3, 0)),
    lambda: bh.local_deterministic(2, [(2, 3), (0, 1)]),
    lambda: bh.local_deterministic(2, [(0, 1, 1), (0, 1)]),
    lambda: _ISO.prob((0, 0, 2), (0, 0, 0)),
    lambda: _ISO.prob((0, 0, 0), (0, 0.5, 0)),
    lambda: bh.tuple_to_index((2, 3)),
    lambda: bh.tuple_to_index((0, 7)),
    lambda: bh.tuple_to_index((1, -1)),
], ids=["correlator-short", "correlator-2", "flip-2", "outputs-3",
        "deterministic-2-3", "deterministic-triple", "prob-x-2",
        "prob-a-half", "index-2-3", "index-0-7", "index-minus-1"])
def test_bits_outside_0_1_are_refused(call):
    with pytest.raises(ValueError):
        call()


def test_numpy_ints_and_bools_are_bits():
    b = bh.named_box("box45", parties=3)
    assert bh.correlator(b, np.array([1, 1, 1])) == bh.correlator(b, (1, 1, 1))
    assert b.prob((np.int8(1), False, True), (0, 0, 0)) == b.prob(
        (1, 0, 1), (0, 0, 0))
    assert behaviors_close(bh.flip_inputs(b, (True, False, np.int64(1))),
                           bh.flip_inputs(b, (1, 0, 1)))


def test_json_roundtrip(tmp_path):
    for b in (bh.named_box("pr"), bh.named_box("box45", parties=3),
              make_svetlichny()):
        path = tmp_path / "box.json"
        bh.save_behavior(b, path)
        loaded = bh.load_behavior(path)
        assert behaviors_close(loaded, b, atol=0.0)
    obj = bh.to_json_obj(bh.named_box("deterministic-zero", parties=3))
    assert len(obj["table"]) == 8  # zero entries omitted


def test_from_json_rejections():
    good = bh.to_json_obj(bh.named_box("pr"))
    bad = dict(good, format="nsbox-v0")
    with pytest.raises(bh.StructureError):
        bh.from_json_obj(bad)
    bad = dict(good, parties="two")
    with pytest.raises(bh.StructureError):
        bh.from_json_obj(bad)
    bad = dict(good, table=[{"x": [0], "a": [0, 0], "p": 1.0}])
    with pytest.raises(bh.StructureError):
        bh.from_json_obj(bad)
    with pytest.raises(bh.StructureError):
        bh.from_json_obj([1, 2, 3])


@pytest.mark.parametrize("change", [
    {"x": [2, 0]}, {"a": [0, -1]}, {"x": [0, 1.0]}, {"a": [True, 0]},
    {"x": "00"}, {"p": "0.5"}, {"p": None}, {"p": float("nan")},
    {"p": float("inf")}, {"p": True},
])
def test_from_json_strict_rows(change):
    obj = bh.to_json_obj(bh.named_box("pr"))
    obj["table"][0] = {**obj["table"][0], **change}
    with pytest.raises(bh.StructureError):
        bh.from_json_obj(obj)


def test_from_json_rejects_repeated_entries_and_non_rows():
    obj = bh.to_json_obj(bh.named_box("pr"))
    repeat = dict(obj, table=obj["table"] + [obj["table"][0]])
    with pytest.raises(bh.StructureError, match="repeats"):
        bh.from_json_obj(repeat)
    for table in ([[0, 0]], [{"x": [0, 0], "a": [0, 0]}], {"x": [0, 0]}):
        with pytest.raises(bh.StructureError):
            bh.from_json_obj(dict(obj, table=table))


def test_from_json_rejects_p_beyond_float_range():
    obj = bh.to_json_obj(bh.named_box("pr"))
    obj["table"][1] = {**obj["table"][1], "p": 10 ** 400}
    with pytest.raises(bh.StructureError, match="entry 1: p"):
        bh.from_json_obj(obj)


@pytest.mark.parametrize("text", ["[" * 200000, "{\"a\": 1", "\udcff"])
def test_read_json_maps_malformed_files(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, errors="surrogateescape")
    with pytest.raises(bh.StructureError):
        bh.read_json(path)
    with pytest.raises(bh.StructureError):
        bh.load_behavior(path)
    with pytest.raises(bh.StructureError):
        bh.load_catalog(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=20)
# values that a row field or a bit is likely to be mistyped as; 10 ** 5000
# has too many digits for repr
NEAR_VALUES = st.sampled_from([2, -1, True, 1.0, 0.5, -0.5, float("nan"),
                               float("inf"), 10 ** 400, 10 ** 5000, "0", [0],
                               [0, 1, 1]]
                              ).map(copy.deepcopy)  # mutations edit lists


def _json_paths(value, prefix=()):
    """Every path into a parsed JSON value, the root included."""
    yield prefix
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _mutated(obj, path, action, value):
    """obj with the value at path replaced, deleted or duplicated."""
    if not path:
        return value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if action == "replace":
        parent[path[-1]] = value
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, list):
        # deepcopy, not a JSON round trip: json.dumps refuses 10 ** 5000
        parent.append(copy.deepcopy(parent[path[-1]]))
    else:
        parent[path[-1] + "_"] = value
    return obj


def _parses_or_refuses(obj):
    """from_json_obj returns a Behavior or raises StructureError; any other
    exception fails the test."""
    try:
        assert isinstance(bh.from_json_obj(obj), bh.Behavior)
    except bh.StructureError:
        pass


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
def test_from_json_fuzz_arbitrary_values(value):
    for obj in (value, {"format": "nsbox-v1", "parties": 2, "table": value},
                {"format": "nsbox-v1", "parties": value, "table": []}):
        _parses_or_refuses(obj)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), parties=st.sampled_from([2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_from_json_fuzz_near_valid(data, parties, seed):
    obj = json.loads(json.dumps(bh.to_json_obj(
        random_ns_box(np.random.default_rng(seed), parties))))
    values = NEAR_VALUES | JSON_VALUES
    row = data.draw(st.integers(0, len(obj["table"]) - 1))
    obj["table"][row].update(data.draw(st.dictionaries(
        st.sampled_from(["x", "a", "p"]), values)))
    obj.update(data.draw(st.dictionaries(
        st.sampled_from(["format", "parties", "table"]), values,
        max_size=1)))
    for _ in range(data.draw(st.integers(0, 2))):
        path = data.draw(st.sampled_from(list(_json_paths(obj))))
        action = data.draw(st.sampled_from(["replace", "delete",
                                            "duplicate"]))
        obj = _mutated(obj, path, action, data.draw(values))
    _parses_or_refuses(obj)


def test_load_catalog_errors(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(bh.StructureError):
        bh.load_catalog(path)
    path.write_text(json.dumps([{"class": 1}]))
    with pytest.raises(bh.StructureError):
        bh.load_catalog(path)
    # a signaling behavior must abort the load with the class named
    t = np.zeros((4, 4))
    for xi, (x, y) in enumerate(bh.bit_tuples(2)):
        t[xi, bh.tuple_to_index((y, 0))] = 1.0
    obj = bh.to_json_obj(bh.Behavior(2, t))
    path.write_text(json.dumps([{"class": 9, "behavior": obj}]))
    with pytest.raises(ValueError, match="class 9"):
        bh.load_catalog(path)


def test_load_catalog_rejects_non_object_entries(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(bh.StructureError, match="entry 0"):
        bh.load_catalog(path)


@pytest.mark.parametrize("ids", [[45, 45], [1.7], [True], ["1"]])
def test_load_catalog_rejects_bad_class_ids(tmp_path, ids):
    obj = bh.to_json_obj(bh.named_box("white", parties=3))
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([{"class": c, "behavior": obj} for c in ids]))
    with pytest.raises(bh.StructureError, match="class"):
        bh.load_catalog(path)


def _bad_table(kind: str, b: bh.Behavior) -> np.ndarray:
    """b's table broken so that validate refuses it."""
    n = b.parties
    t = b.table.copy()
    if kind == "signaling":    # party 1 outputs party 2's input
        t[:] = 0.0
        for xi in range(2 ** n):
            t[xi, ((xi >> (n - 2)) & 1) << (n - 1)] = 1.0
    elif kind == "negative":
        t[0, 0] -= 1.0
        t[0, 1] += 1.0
    else:                      # not normalized
        t *= 1.01
    return t


# entry kinds: the ones after "valid" fail validation, the rest are
# structurally malformed
CATALOG_KINDS = ("valid", "signaling", "negative", "unnormalized",
                 "bad-bits", "no-behavior", "non-object", "float-class",
                 "repeated-class")


def _catalog_item(kind: str, class_id: int, parties: int, seed: int):
    b = random_ns_box(np.random.default_rng(seed), parties)
    if kind in ("signaling", "negative", "unnormalized"):
        b = bh.Behavior(parties, _bad_table(kind, b))
    obj = bh.to_json_obj(b)
    if kind == "bad-bits":
        obj["table"][0]["a"] = [2] * parties
    item = {"class": class_id, "behavior": obj}
    if kind == "no-behavior":
        del item["behavior"]
    elif kind == "non-object":
        return [class_id, obj]
    elif kind == "float-class":
        item["class"] = class_id + 0.5
    elif kind == "repeated-class":
        item["class"] = 1
    return item


def _load_outcome(load, path):
    """The entries load returns, or the type and text of what it raises."""
    try:
        return [(e.class_id, e.behavior.parties, e.behavior.table.tobytes())
                for e in load(path)]
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(items=st.lists(st.tuples(
    st.sampled_from(CATALOG_KINDS[:1] * 6 + CATALOG_KINDS[1:]),
    st.sampled_from([2, 3, 4]), st.integers(0, 2 ** 32 - 1)), max_size=9))
def test_stacked_catalog_errors_match_a_sequential_load(tmp_path_factory,
                                                        items):
    catalog = [_catalog_item(kind, i + 1, parties, seed)
               for i, (kind, parties, seed) in enumerate(items)]
    path = tmp_path_factory.mktemp("catalog") / "cat.json"
    path.write_text(json.dumps(catalog))
    want = _load_outcome(sequential_load_catalog, path)
    assert _load_outcome(bh.load_catalog, path) == want


def test_catalog_error_names_the_first_bad_entry(tmp_path):
    kinds = ["valid"] * 7
    kinds[3], kinds[5] = "signaling", "bad-bits"
    catalog = [_catalog_item(kind, i + 1, 3 - i % 2, i)
               for i, kind in enumerate(kinds)]
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(catalog))
    with pytest.raises(ValueError,
                       match=r"^catalog entry 3 \(class 4\) fails validation"):
        bh.load_catalog(path)
    kinds[3] = "valid"
    path.write_text(json.dumps([_catalog_item(kind, i + 1, 3 - i % 2, i)
                                for i, kind in enumerate(kinds)]))
    with pytest.raises(bh.StructureError, match="^table entry 0: a bits"):
        bh.load_catalog(path)


def test_empty_catalog_loads(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text("[]")
    assert bh.load_catalog(path) == []


@pytest.mark.parametrize("parties", [2, 3, 4])
def test_stacked_check_agrees_with_validate_at_the_tolerance(parties):
    rng = np.random.default_rng(70 + parties)
    tables = []
    for scale in (0.99, 1.01):
        shift = scale * bh.PROB_TOL
        for _ in range(3):
            b = random_ns_box(rng, parties)
            x, a = rng.integers(2 ** parties, size=2)
            t = b.table.copy()
            t[x, a] += shift   # a row sum off by shift
            tables.append(t)
            t = b.table.copy()
            # party 1's marginal at input x moves by shift, the row sum not
            t[x, a & ~(1 << (parties - 1))] += shift
            t[x, a | 1 << (parties - 1)] -= shift
            tables.append(t)
    stacked = bh._validate_stack(np.stack(tables))
    reports = [bh.validate(bh.Behavior(parties, t)) for t in tables]
    assert [r.ok for r in stacked] == [r.ok for r in reports]
    assert [r.summary() for r in stacked] == [r.summary() for r in reports]
    assert [r.ok for r in reports] == [True] * 6 + [False] * 6


def _spectrum_bound(t: np.ndarray) -> float:
    """2^-N sum over α ⊄ β of |F[α, β]|, F = H t H with
    H[x, α] = (-1)^|α & x|, built here from the popcounts: the bound on
    every marginal spread that _validate_stack's docstring states."""
    size = t.shape[0]
    n = size.bit_length() - 1
    idx = np.arange(size)
    popcount = np.array([bin(v).count("1") for v in range(size)])
    h = (-1.0) ** popcount[idx[:, None] & idx]
    outside = (idx[:, None] & ~idx[None, :]) != 0
    return float(np.abs(h @ t @ h)[outside].sum()) / 2 ** n


def _relabeled(b: bh.Behavior, rng: np.random.Generator) -> bh.Behavior:
    """b under a random party permutation, input flip and output map."""
    n = b.parties
    bits = rng.integers(0, 2, (3, n)).tolist()
    b = bh.permute_parties(b, rng.permutation(n).tolist())
    return bh.relabel_outputs(bh.flip_inputs(b, bits[0]), bits[1], bits[2])


def _marginal_moved(b: bh.Behavior, rng: np.random.Generator,
                    shift: float) -> np.ndarray:
    """b's table with shift moved, within one row, from the largest entry
    whose party-k outcome is 1 to the entry with that outcome 0: one
    party's marginal at one input changes by shift, the row sum does
    not, and no entry goes negative."""
    n = b.parties
    t = b.table.copy()
    x = int(rng.integers(2 ** n))
    bit = 1 << int(rng.integers(n))
    has_bit = (np.arange(2 ** n) & bit) != 0
    source = int(np.argmax(np.where(has_bit, t[x], -1.0)))
    t[x, source] -= shift
    t[x, source ^ bit] += shift
    return t


@settings(max_examples=80, deadline=None)
@given(parties=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
       relabel=st.booleans(),
       scale=st.sampled_from([0.0, 0.01, 0.3, 0.49, 0.51, 0.99, 1.01, 3.0]))
def test_validate_equals_the_subset_loop(parties, seed, relabel, scale):
    """validate reports what the subset loop reports, to the bit, on
    no-signaling mixtures, their relabelings and one-marginal moves of
    scale * PROB_TOL around the tolerance."""
    rng = np.random.default_rng(seed)
    b = random_ns_box(rng, parties)
    if relabel:
        b = _relabeled(b, rng)
    if scale:
        b = bh.Behavior(parties, _marginal_moved(b, rng,
                                                 scale * bh.PROB_TOL))
    want = subset_loop_reports(b.table[None])[0]
    assert bh.validate(b) == want
    assert want.ok == (scale < 1.0)


def test_valid_tables_skip_the_subset_loop(monkeypatch):
    """The Walsh–Hadamard bound clears no-signaling mixtures, their
    relabelings and a 0.001 PROB_TOL marginal move without the loop."""
    rng = np.random.default_rng(29)
    boxes = []
    for parties in range(2, 7):
        b = random_ns_box(rng, parties)
        boxes += [b, _relabeled(b, rng), bh.Behavior(
            parties, _marginal_moved(b, rng, 1e-3 * bh.PROB_TOL))]

    def no_loop(n):
        raise AssertionError("the subset loop ran")

    monkeypatch.setattr(bh, "_outside_axes", no_loop)
    assert all(bh.validate(b).ok for b in boxes)


@settings(max_examples=60, deadline=None)
@given(parties=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
       nudge=st.sampled_from([0.0, 1e-10, 1e-6, 1e-2]))
def test_spectrum_bound_covers_every_spread(parties, seed, nudge):
    """On signaling tables, random or a nudge away from no-signaling, the
    stated bound is at least the largest spread the subset loop finds."""
    rng = np.random.default_rng(seed)
    signaling = random_signaling_box(rng, parties).table
    ns = random_ns_box(rng, parties).table
    for t in (signaling, (1.0 - nudge) * ns + nudge * signaling):
        report = subset_loop_reports(t[None], atol=0.0)[0]
        spread = max((v.magnitude for v in report.violations
                      if v.constraint == "no-signaling"), default=0.0)
        assert spread <= _spectrum_bound(t) * (1.0 + 1e-12) + 1e-15
        weights = bh._signaling_weights(parties)
        stated = np.abs(bh._walsh_hadamard(parties) @ t
                        @ bh._walsh_hadamard(parties)).ravel() @ weights
        assert _spectrum_bound(t) <= stated * (0.5 + 1e-12) + 1e-15


def _catalog_behavior(rng: np.random.Generator, parties: int) -> dict:
    """nsbox-v1 object of a random box with omitted entries, integer p
    values and entries of -1e-13 that Behavior clamps to 0."""
    if rng.random() < 0.3:   # a deterministic box: p values the ints 0, 1
        funcs = rng.integers(0, 2, (parties, 2)).tolist()
        obj = bh.to_json_obj(bh.local_deterministic(parties, funcs))
        for row in obj["table"]:
            row["p"] = int(row["p"])
    else:
        obj = bh.to_json_obj(random_ns_box(rng, parties))
    rows = obj["table"]
    rng.shuffle(rows)
    present = {(tuple(r["x"]), tuple(r["a"])) for r in rows}
    for _ in range(int(rng.integers(0, 3))):
        x, a = (bh.index_to_tuple(int(v), parties)
                for v in rng.integers(2 ** parties, size=2))
        if (x, a) not in present:
            present.add((x, a))
            rows.append({"x": list(x), "a": list(a), "p": -1e-13})
    if rng.random() < 0.3:
        rows.append({"x": [0] * parties, "a": [1] * parties, "p": 0})
        if (tuple(rows[-1]["x"]), tuple(rows[-1]["a"])) in present:
            rows.pop()
    return obj


@settings(max_examples=40, deadline=None)
@given(parties=st.lists(st.integers(2, 6), max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_pass_load_equals_from_json_obj(tmp_path_factory, parties, seed):
    rng = np.random.default_rng(seed)
    items = [{"class": i, "behavior": _catalog_behavior(rng, n)}
             for i, n in enumerate(parties)]
    path = tmp_path_factory.mktemp("catalog") / "cat.json"
    path.write_text(json.dumps(items))
    with pytest.MonkeyPatch.context() as patch:   # one pass, no fallback
        patch.setattr(bh, "from_json_obj", None)
        loaded = bh.load_catalog(path)
    assert [e.class_id for e in loaded] == list(range(len(parties)))
    for entry, item in zip(loaded, json.loads(path.read_text())):
        want = bh.from_json_obj(item["behavior"])
        assert entry.behavior.parties == want.parties
        assert entry.behavior.table.tobytes() == want.table.tobytes()
        assert not entry.behavior.table.flags.writeable


def test_orbit_caches_are_shared_and_read_only():
    gather = bh._orbit_gather(3)
    assert gather.dtype == np.uint8 and gather.nbytes == 384
    assert bh._orbit_gather(6).nbytes == 720 * 64 * 64
    assert bh._orbit_gather(3) is gather
    assert bh._signaling_weights(3).nbytes == 512
    assert bh._signaling_weights(6).nbytes == 32 * 2 ** 10
    b = bh.named_box("isotropic", bias=0.9)
    bh.orbit_forms(b, bias_weights(3))
    first = bh._weighted_hadamard.cache_info()
    bh.orbit_forms(b, bias_weights(3))
    assert bh._weighted_hadamard.cache_info().hits == first.hits + 1
    for cache in (gather, bh._signaling_weights(3),
                  bh._weighted_hadamard((8, 2), bias_weights(3).tobytes())):
        assert not cache.flags.writeable


def test_behaviors_close():
    a = bh.named_box("white", parties=2)
    t = a.table.copy()
    t[0, 0] += 2e-12
    t[0, 1] -= 2e-12
    assert behaviors_close(a, bh.Behavior(2, t), atol=1e-11)
    assert not behaviors_close(a, bh.Behavior(2, t), atol=1e-13)
    assert not behaviors_close(a, bh.named_box("white", parties=3))
