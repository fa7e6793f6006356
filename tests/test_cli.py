import itertools
import json

import numpy as np
import pytest

from conftest import random_ns_box
from icbox import cli, scan
from icbox.behaviors import named_box, save_behavior, to_json_obj
from icbox.protocol import concat_success_simulated


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_multipartite_line(capsys):
    code, out, _ = run(capsys, "eval", "--box", "builtin:box45",
                       "--criterion", "ic-multi")
    assert code == 0
    assert out == "lhs=4 rhs=2 margin=2 violated=true\n"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "--box", "builtin:box45",
                       "--criterion", "uffink-3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["criterion"] == "uffink-3"
    assert obj["lhs"] == pytest.approx(8.0, abs=1e-12)
    assert obj["violated"] is False
    assert obj["details"]["orbit_size"] == 3072


def test_eval_fail_on_violation(capsys):
    code, _, _ = run(capsys, "eval", "--box", "builtin:box45",
                     "--criterion", "ic-multi", "--fail-on-violation")
    assert code == 1
    code, _, _ = run(capsys, "eval", "--box", "builtin:white:3",
                     "--criterion", "ic-multi", "--fail-on-violation")
    assert code == 0


def test_eval_noisy(capsys):
    code, out, _ = run(capsys, "eval", "--box", "builtin:isotropic:0.9",
                       "--criterion", "ic-noisy", "--epsilon-channel", "0.25")
    assert code == 0
    assert out.startswith("lhs=")
    assert "violated=" in out


def test_eval_errors(capsys):
    code, _, err = run(capsys, "eval", "--box", "builtin:nosuch",
                       "--criterion", "ic-multi")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "eval", "--box", "builtin:box45",
                       "--criterion", "ic-nosuch")
    assert code == 2 and "unknown criterion" in err
    # missing --criterion is a usage error
    code, _, err = run(capsys, "eval", "--box", "builtin:box45")
    assert code == 2
    # ic-noisy without channel epsilon
    code, _, err = run(capsys, "eval", "--box", "builtin:box45",
                       "--criterion", "ic-noisy")
    assert code == 2


def test_box_uri_party_conflicts(capsys):
    code, _, err = run(capsys, "protocol", "--box", "builtin:pr",
                       "--parties", "3")
    assert code == 2 and "2-party" in err
    code, _, err = run(capsys, "protocol", "--box", "builtin:white:3",
                       "--parties", "4")
    assert code == 2
    code, _, err = run(capsys, "protocol", "--box", "builtin:white")
    assert code == 2 and "party count" in err
    # a trailing URI argument is refused, not dropped
    code, out, err = run(capsys, "protocol", "--box",
                         "builtin:isotropic:0.5:3:4")
    assert (code, out) == (2, "")
    assert err == "error: builtin:isotropic takes at most two URI arguments\n"


@pytest.mark.parametrize("argv, message", [
    (("protocol", "--box", "builtin:pr:2"),
     "builtin:pr takes no URI arguments"),
    (("protocol", "--box", "builtin:box45:3:4"),
     "builtin:box45 takes at most one URI argument"),
    (("protocol", "--box", "builtin:white:3:4"),
     "builtin:white takes at most one URI argument"),
    (("protocol", "--box", "builtin:isotropic"),
     "builtin:isotropic needs :<E>[:<N>]"),
    (("protocol", "--box", "builtin:nosuch"),
     "unknown builtin box 'nosuch'"),
    (("protocol", "--box", "nosuch:x"),
     "box URI must start with builtin: or file:, got 'nosuch:x'"),
    (("protocol", "--box", "file:{path}", "--parties", "4"),
     "--parties 4 but file has 3"),
    (("eval", "--box", "builtin:box45", "--criterion", "ic-multi",
      "--criterion", "ic-multicopy"),
     "exactly one --criterion expected here"),
    (("protocol", "--box", "builtin:isotropic:x"),
     "builtin:isotropic: E must be a number, got 'x'"),
    (("protocol", "--box", "builtin:white:x"),
     "builtin:white: N must be an integer, got 'x'"),
    (("protocol", "--box", "builtin:isotropic:0.5:x"),
     "builtin:isotropic: N must be an integer, got 'x'"),
])
def test_box_uri_and_criterion_errors(tmp_path, capsys, argv, message):
    path = tmp_path / "box45.json"
    save_behavior(named_box("box45", parties=3), path)
    argv = [arg.format(path=path) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_protocol_lines(capsys):
    code, out, _ = run(capsys, "protocol", "--box", "builtin:pr")
    assert code == 0
    assert out.splitlines() == ["E_I=1 E_II=1",
                                "p_success_choice1=1",
                                "p_success_choice2=1"]


def test_concat_values(capsys):
    code, out, _ = run(capsys, "concat", "--box", "builtin:white:3",
                       "--depth", "1", "--z", "0")
    assert code == 0 and out == "0.5\n"
    code, out, _ = run(capsys, "concat", "--box", "builtin:isotropic:0.7",
                       "--depth", "2", "--z", "01")
    assert code == 0 and out == "0.745\n"
    code, out2, _ = run(capsys, "concat", "--box", "builtin:isotropic:0.7",
                        "--depth", "2", "--z", "01", "--closed")
    assert code == 0 and out2 == out


def test_concat_errors(capsys):
    code, _, err = run(capsys, "concat", "--box", "builtin:isotropic:0.7",
                       "--depth", "1", "--z", "021")
    assert code == 2 and "bitstring" in err
    code, _, _ = run(capsys, "concat", "--box", "builtin:isotropic:0.7",
                     "--depth", "1")
    assert code == 2
    code, _, _ = run(capsys, "concat", "--box", "builtin:isotropic:0.7",
                     "--z", "0")
    assert code == 2


@pytest.mark.parametrize("closed", [[], ["--closed"]])
@pytest.mark.parametrize("z", ["1", "", "0110"])
def test_concat_z_length_must_match_depth(capsys, closed, z):
    code, out, err = run(capsys, "concat", "--box", "builtin:box45",
                         "--depth", "3", "--z", z, *closed)
    assert code == 2 and out == ""
    assert "--z must have 3 bits" in err


@pytest.mark.parametrize("parties", range(2, 7))
def test_concat_reads_one_path(tmp_path, capsys, parties):
    """concat prints the closed form, within 1e-12 of the exact enumeration,
    and the same bytes with --closed, without it and with config closed."""
    path = tmp_path / "random.json"
    save_behavior(random_ns_box(np.random.default_rng(parties), parties),
                  path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"closed": True}))
    n = parties
    uris = ["builtin:pr"] if n == 2 else [f"builtin:box45:{n}",
                                          f"builtin:isotropic:0.35:{n}"]
    uris += [f"builtin:white:{n}", f"builtin:detzero:{n}",
             f"builtin:isotropic:0.7:{n}", f"file:{path}"]
    for uri in uris:
        box = cli.parse_box_uri(uri)
        for depth in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=depth):
                flags = ("concat", "--box", uri, "--depth", str(depth),
                         "--z", "".join(map(str, bits)))
                code, out, err = run(capsys, *flags)
                assert (code, err) == (0, "")
                want = concat_success_simulated(box, depth, bits)
                assert abs(float(out) - want) <= 1e-12, (uri, bits)
                assert run(capsys, *flags, "--closed") == (0, out, "")
                assert run(capsys, *flags, "--config", str(cfg)) == (0, out,
                                                                      "")


def test_protocol_has_no_channel_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["protocol", "--box", "builtin:box45",
                  "--epsilon-channel", "0.3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_validate_and_box_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "validate", "--box", "builtin:box45")
    assert code == 0 and out == "valid\n"

    path = tmp_path / "b.json"
    code, out, _ = run(capsys, "box", "--box", "builtin:box45", "--emit",
                       "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "eval", "--box", f"file:{path}",
                       "--criterion", "ic-multi")
    assert code == 0
    assert out == "lhs=4 rhs=2 margin=2 violated=true\n"


def test_validate_rejects_signaling_box(tmp_path, capsys):
    # receiver output copies a sender input: signaling
    table = np.zeros((4, 4))
    for x in range(4):
        table[x, (x >> 1) & 1] = 1.0  # a1 = 0, a2 = x1
    bad = {"format": "nsbox-v1", "parties": 2,
           "table": [{"x": [x >> 1, x & 1], "a": [a >> 1, a & 1],
                      "p": table[x, a]}
                     for x in range(4) for a in range(4) if table[x, a]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "validate", "--box", f"file:{path}")
    assert code == 2
    assert "no-signaling" in out


def test_box_summary_line(capsys):
    code, out, _ = run(capsys, "box", "--box", "builtin:box45")
    assert code == 0
    assert out == "parties=3 entries=64 min=0 max=0.25 valid=true\n"


def test_scan_csv(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "scan", "--grid-step", "0.5",
                     "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "gamma,epsilon,criterion,lhs,rhs,margin,violated"
    assert len(lines) == 13  # 6 points x 2 criteria
    code, _, _ = run(capsys, "scan", "--grid-step", "0.5",
                     "--out", str(path), "--fail-on-violation")
    assert code == 1
    code, _, _ = run(capsys, "scan", "--grid-step", "1.0",
                     "--criterion", "ic-multicopy", "--out", str(path),
                     "--fail-on-violation")
    assert code == 1


@pytest.mark.parametrize("step", ["1e-300", "1e-5", "0", "nan"])
def test_scan_refuses_grid_steps_below_the_bound(capsys, step):
    code, out, err = run(capsys, "scan", "--grid-step", step)
    assert (code, out) == (2, "")
    assert err == (f"error: grid step must be in [0.0001, 1], got "
                   f"{float(step)}\n")


def test_grid_steps_down_to_the_bound_scan(capsys, monkeypatch):
    """A step of 0.001 reaches scan_slice (its 1001 x 1001 grid is not run
    here) and so does the bound itself."""
    specs = []
    monkeypatch.setattr(scan, "scan_slice",
                        lambda spec, **kw: specs.append(spec) or [])
    for step in ("0.001", "1e-4"):
        assert run(capsys, "scan", "--grid-step", step) == (
            0, ",".join(scan.CSV_HEADER) + "\n", "")
    assert [s.grid_step for s in specs] == [0.001, scan.MIN_GRID_STEP]
    grid = scan._grid(0.001)
    assert len(grid) == 1001 and grid[-1] == 1.0


def test_scan_slice_of_generator_files(tmp_path, capsys):
    uris = []
    for name in ("box45", "deterministic-zero", "white"):
        path = tmp_path / f"{name}.json"
        save_behavior(named_box(name, parties=3), path)
        uris.append(f"file:{path}")
    flags = ("scan", "--grid-step", "0.2", "--criterion", "ic-multi",
             "--criterion", "ic-multicopy")
    code, default, _ = run(capsys, *flags, "--slice", "default")
    assert code == 0 and len(default.splitlines()) == 43
    code, out, err = run(capsys, *flags, "--slice", ",".join(uris))
    assert (code, out, err) == (0, default, "")

    code, out, err = run(capsys, "scan", "--slice", ",".join(uris[:2]))
    assert (code, out) == (2, "")
    assert err == ("error: --slice must be 'default' or three "
                   "comma-separated box URIs\n")

    # the receiver copies the first sender's input: a3 = x1
    path = tmp_path / "signaling.json"
    path.write_text(json.dumps({"format": "nsbox-v1", "parties": 3, "table": [
        {"x": [x1, x2, x3], "a": [0, 0, x1], "p": 1.0}
        for x1 in (0, 1) for x2 in (0, 1) for x3 in (0, 1)]}))
    code, out, err = run(capsys, "scan", "--slice",
                         ",".join([uris[0], f"file:{path}", uris[2]]))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: file:{path} is not a valid box:\n")
    assert "no-signaling" in err


def test_boundary_csv(capsys):
    code, out, _ = run(capsys, "boundary", "--criterion", "ic-multicopy",
                       "--epsilon-slice", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "criterion,epsilon,gamma_star,bracket_width"
    cells = lines[1].split(",")
    assert cells[0] == "ic-multicopy"
    assert abs(float(cells[2]) - 2.0 ** -0.5) <= 2e-6
    assert float(cells[3]) <= 1e-6


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_boundary_rejects_bad_tolerance(capsys, monkeypatch, tol):
    evaluated = []
    monkeypatch.setattr(scan, "evaluate",
                        lambda *args, **kwargs: evaluated.append(args))
    code, out, err = run(capsys, "boundary", "--criterion", "ic-multicopy",
                         "--epsilon-slice", "0", "--tol", tol)
    assert code == 2 and out == "" and "tolerance" in err
    assert evaluated == []  # refused before any point is evaluated


@pytest.mark.parametrize("criterion, message", [
    ("ic-noisy", "ic-noisy needs a channel epsilon"),
    ("uffink-2", "uffink-2 needs a 2-party behavior")])
def test_boundary_reports_evaluate_errors(capsys, criterion, message):
    # an error of evaluate is not a ray without a boundary
    code, out, err = run(capsys, "boundary", "--criterion", criterion,
                         "--epsilon-slice", "0.2")
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_boundary_tolerance_below_float_spacing(capsys):
    code, out, _ = run(capsys, "boundary", "--criterion", "ic-multicopy",
                       "--epsilon-slice", "0", "--tol", "1e-20")
    assert code == 0
    cells = out.splitlines()[1].split(",")
    assert abs(float(cells[2]) - 2.0 ** -0.5) <= 1e-9
    assert 0.0 < float(cells[3]) < 1e-15  # adjacent floats


def test_classify_default(capsys):
    code, out, _ = run(capsys, "classify")
    assert code == 0
    assert "MISMATCH" not in out
    assert "note: classes absent from catalog" in out
    code, out, _ = run(capsys, "classify", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["diff"] == []
    assert obj["violators"]["ic-multicopy"] == [45]
    assert obj["violators"]["uffink-3"] == [46]


def test_classify_mismatch(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    from icbox.behaviors import to_json_obj
    path.write_text(json.dumps(
        [{"class": 45, "behavior": to_json_obj(named_box("white"))}]))
    code, out, _ = run(capsys, "classify", "--catalog", str(path))
    assert code == 0
    assert "MISMATCH class 45 ic-multicopy" in out


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"box": "builtin:box45",
                               "criterion": "ic-multi"}))
    code, out, _ = run(capsys, "eval", "--config", str(cfg))
    assert code == 0
    assert out == "lhs=4 rhs=2 margin=2 violated=true\n"
    # explicit flags beat the config
    code, out, _ = run(capsys, "eval", "--config", str(cfg),
                       "--box", "builtin:white:3")
    assert code == 0
    assert "violated=false" in out
    code, out, _ = run(capsys, "eval", "--config", str(cfg),
                       "--criterion", "ic-multicopy")
    assert code == 0
    assert out == "lhs=2 rhs=1 margin=1 violated=true\n"


def test_config_keys_follow_flag_names(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"box": "builtin:box45",
                               "criterion": "uffink-3", "json": True}))
    code, out, _ = run(capsys, "eval", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["criterion"] == "uffink-3"
    cfg.write_text(json.dumps({"box": "builtin:isotropic:0.7", "depth": "2",
                               "z": "01", "closed": True}))
    code, out, _ = run(capsys, "concat", "--config", str(cfg))
    assert code == 0 and out == "0.745\n"
    cfg.write_text(json.dumps({"criterion": ["ic-multicopy"],
                               "epsilon_slice": 0, "tol": 1e-3}))
    code, out, _ = run(capsys, "boundary", "--config", str(cfg))
    assert code == 0
    assert float(out.splitlines()[1].split(",")[3]) <= 1e-3


def test_config_errors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    code, _, err = run(capsys, "eval", "--config", str(cfg),
                       "--box", "builtin:pr", "--criterion", "ic-bipartite")
    assert code == 2 and "unknown config keys" in err
    cfg.write_text(json.dumps([1, 2]))
    code, _, err = run(capsys, "eval", "--config", str(cfg),
                       "--box", "builtin:pr", "--criterion", "ic-bipartite")
    assert code == 2
    code, _, err = run(capsys, "eval", "--config", str(tmp_path / "none.json"),
                       "--box", "builtin:pr", "--criterion", "ic-bipartite")
    assert code == 2


BOX = {"box": "builtin:isotropic:0.7"}


@pytest.mark.parametrize("command, config, key", [
    ("boundary", {"criterion": "ic-multicopy", "epsilon_slice": 0,
                  "tol": True}, "tol"),
    ("eval", {**BOX, "criterion": "ic-multi", "out": 2}, "out"),
    ("concat", {**BOX, "depth": 1.5, "z": "0"}, "depth"),
    ("concat", {**BOX, "depth": True, "z": "0"}, "depth"),
    ("concat", {**BOX, "depth": "1.5", "z": "0"}, "depth"),
    ("concat", {**BOX, "depth": 1, "z": 0}, "z"),
    ("eval", {**BOX, "criterion": 5}, "criterion"),
    ("eval", {**BOX, "criterion": ["ic-multi", 1]}, "criterion"),
    ("eval", {"box": ["x"], "criterion": "ic-multi"}, "box"),
    ("eval", {**BOX, "criterion": "ic-multi", "parties": 3.0}, "parties"),
    ("eval", {**BOX, "criterion": "ic-noisy", "epsilon_channel": "x"},
     "epsilon_channel"),
    ("eval", {**BOX, "criterion": "ic-multi", "json": "false"}, "json"),
    ("eval", {**BOX, "criterion": "ic-multi", "json": 1}, "json"),
    ("scan", {"slice": 5}, "slice"),
    ("scan", {"grid_step": None}, "grid_step"),
    ("scan", {"grid_step": int("1" * 400)}, "grid_step"),
])
def test_config_refuses_values_of_another_type(tmp_path, capsys, command,
                                               config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad --config: config key {key!r} must be ")


@pytest.mark.parametrize("command, config, flags", [
    ("eval", {**BOX, "criterion": ["ic-multi"], "json": False},
     ["--criterion", "ic-multi"]),
    ("eval", {**BOX, "criterion": "uffink-3", "json": True},
     ["--criterion", "uffink-3", "--json"]),
    ("eval", {**BOX, "criterion": "ic-noisy", "epsilon_channel": 0},
     ["--criterion", "ic-noisy", "--epsilon-channel", "0"]),
    ("eval", {**BOX, "criterion": "ic-multi", "parties": "3"},
     ["--criterion", "ic-multi", "--parties", "3"]),
    ("concat", {**BOX, "depth": 2, "z": "01"}, ["--depth", "2", "--z", "01"]),
    ("concat", {**BOX, "depth": "2", "z": "01", "closed": False},
     ["--depth", "2", "--z", "01"]),
    ("boundary", {"criterion": "ic-multicopy", "epsilon_slice": 0,
                  "tol": 1e-3},
     ["--criterion", "ic-multicopy", "--epsilon-slice", "0", "--tol", "1e-3"]),
    ("scan", {"grid_step": "0.5", "criterion": "ic-multicopy"},
     ["--grid-step", "0.5", "--criterion", "ic-multicopy"]),
    ("scan", {"grid_step": 1}, ["--grid-step", "1"]),
])
def test_config_values_read_like_flags(tmp_path, capsys, command, config,
                                       flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    if "box" in config:
        flags = [*flags, "--box", config["box"]]
    want = run(capsys, command, *flags)
    assert want[0] == 0
    assert run(capsys, command, "--config", str(cfg)) == want


def test_missing_box_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--criterion", "ic-multi"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_file_uri_with_saved_behavior(tmp_path, capsys):
    path = tmp_path / "iso.json"
    save_behavior(named_box("isotropic", bias=0.6), path)
    code, out, _ = run(capsys, "protocol", "--box", f"file:{path}")
    assert code == 0
    assert out.splitlines()[0] == "E_I=0.6 E_II=0.6"


def _signaling_box_file(tmp_path):
    # receiver output copies a sender input: a2 = x1
    rows = [{"x": [x1, x2], "a": [0, x1], "p": 1.0}
            for x1 in (0, 1) for x2 in (0, 1)]
    path = tmp_path / "signaling.json"
    path.write_text(json.dumps({"format": "nsbox-v1", "parties": 2,
                                "table": rows}))
    return path


def test_file_boxes_are_validated_on_load(tmp_path, capsys):
    path = _signaling_box_file(tmp_path)
    for crit in ("ic-bipartite", "ic-multi"):
        code, out, err = run(capsys, "eval", "--box", f"file:{path}",
                             "--criterion", crit)
        assert code == 2 and out == ""
        assert "no-signaling" in err
    code, _, err = run(capsys, "protocol", "--box", f"file:{path}")
    assert code == 2 and "no-signaling" in err
    # the commands that report validity still load the box
    code, out, _ = run(capsys, "box", "--box", f"file:{path}")
    assert code == 0 and out.endswith("valid=false\n")


@pytest.mark.parametrize("rows", [
    [{"x": [2, 0], "a": [0, 0], "p": 1.0}],
    [{"x": [0, 0], "a": [0, 0], "p": float("nan")}],
    [{"x": [0, 0], "a": [0, 0], "p": 0.5}] * 2,
])
def test_malformed_box_file_exits_2(tmp_path, capsys, rows):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "nsbox-v1", "parties": 2,
                                "table": rows}))
    code, out, err = run(capsys, "box", "--box", f"file:{path}")
    assert code == 2 and out == "" and err.startswith("error: table entry")


def test_malformed_catalog_exits_2(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, "classify", "--catalog", str(path))
    assert code == 2 and out == ""
    assert "catalog entry 0 is not an object" in err


def test_repeated_catalog_class_exits_2(tmp_path, capsys):
    from icbox.behaviors import to_json_obj
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(
        [{"class": 45, "behavior": to_json_obj(named_box(name))}
         for name in ("box45", "white")]))
    code, out, err = run(capsys, "classify", "--catalog", str(path))
    assert code == 2 and out == ""
    assert "repeats class 45" in err


def test_classify_empty_catalog(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text("[]")
    code, out, _ = run(capsys, "classify", "--catalog", str(path), "--json")
    assert code == 0
    assert '"classes": {}' in out
    assert json.loads(out)["violators"] == {"ic-multicopy": [],
                                            "uffink-3": []}
    code, out, _ = run(capsys, "classify", "--catalog", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "class  ic-multicopy (lhs)  uffink-3 (lhs)"
    assert lines[1].startswith("note: classes absent from catalog")
    assert len(lines) == 2


def test_classify_refuses_non_tripartite_catalog(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(
        [{"class": 45, "behavior": to_json_obj(named_box("pr"))}]))
    code, out, err = run(capsys, "classify", "--catalog", str(path))
    assert code == 2 and out == ""
    assert "catalog entry 0 (class 45) has 2 parties" in err


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    for argv in (["eval", "--box", f"file:{path}", "--criterion",
                  "ic-multicopy"],
                 ["classify", "--catalog", str(path)],
                 ["classify", "--config", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "nested too deeply" in err


def test_probability_beyond_float_range_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"format": "nsbox-v1", "parties": 2, "table": '
                    '[{"x": [0, 0], "a": [0, 0], "p": 1' + "0" * 400 + "}]}")
    code, out, err = run(capsys, "box", "--box", f"file:{path}")
    assert code == 2 and out == ""
    assert err.startswith("error: table entry 0: p must be a finite number")
