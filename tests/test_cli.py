import json

import numpy as np
import pytest

import weakfuse.cli as cli
from weakfuse.errors import (
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    ParseError,
    SemanticError,
)
from weakfuse.cli import (
    _MAX_GRID_POINTS,
    _parse_grid,
    config_hash,
    default_config_dict,
    ingest_csv,
    main,
    parse_config,
    parse_config_dict,
)
from weakfuse.estimator import one_step_estimate
from weakfuse.model import layout_from_design
from weakfuse.simulation import generate_dataset, named_scenario


# ---------------------------------------------------------------- config

def test_default_config_round_trips():
    cfg = parse_config_dict(default_config_dict())
    assert cfg.design.d == 3 and cfg.design.k == 4
    assert cfg.design.weak_at(3) == frozenset({2, 3, 4})
    assert cfg.estimand.kind == "ate"
    assert cfg.variant.label() == "efficient_fusion"
    assert cfg.level == 0.95
    assert cfg.seed is None


def test_config_rejects_unknown_keys():
    blob = default_config_dict()
    blob["design"]["wieght_specs"] = blob["design"].pop("weight_specs")
    with pytest.raises(ParseError, match="wieght_specs: unknown key"):
        parse_config_dict(blob)


def test_config_rejects_non_object_root():
    with pytest.raises(ParseError, match="root must be an object"):
        parse_config_dict([1, 2])


def test_config_bad_term_text_names_the_path():
    blob = default_config_dict()
    blob["design"]["weight_specs"]["3,2"]["terms"] = ["z9*log(z3)"]
    with pytest.raises(ParseError, match=r"weight_specs.3,2.terms"):
        parse_config_dict(blob)


def test_config_unknown_family():
    blob = default_config_dict()
    blob["design"]["weight_specs"]["3,2"] = {"family": "gaussian_bump"}
    with pytest.raises(ParseError, match="unknown family"):
        parse_config_dict(blob)


def test_config_bad_spec_key_shape():
    blob = default_config_dict()
    blob["design"]["weight_specs"]["3-2"] = blob["design"]["weight_specs"].pop("3,2")
    with pytest.raises(ParseError, match='look like "j,s"'):
        parse_config_dict(blob)


def test_config_semantic_errors_are_semantic():
    blob = default_config_dict()
    blob["design"]["aligned"]["9"] = [1]
    with pytest.raises(SemanticError, match="config.design"):
        parse_config_dict(blob)
    blob = default_config_dict()
    blob["variant"] = {"kind": "fastest"}
    with pytest.raises(SemanticError, match="config.variant"):
        parse_config_dict(blob)
    blob = default_config_dict()
    blob["estimand"] = {"kind": "median"}
    with pytest.raises(SemanticError, match="config.estimand"):
        parse_config_dict(blob)


def test_config_level_and_seed_validation():
    blob = default_config_dict()
    blob["level"] = 1.0
    with pytest.raises(ParseError, match="config.level"):
        parse_config_dict(blob)
    blob = default_config_dict()
    blob["seed"] = "7"
    with pytest.raises(ParseError, match="config.seed"):
        parse_config_dict(blob)


def test_truncation_threshold_lands_in_the_spec():
    blob = default_config_dict()
    blob["design"]["weight_specs"]["3,2"] = {
        "family": "truncated_above_threshold", "threshold": 0.6}
    cfg = parse_config_dict(blob)
    spec = cfg.design.spec_for(3, 2)
    assert spec.threshold == 0.6 and spec.nparams == 0
    # beta holds the tilt coefficients only
    assert layout_from_design(cfg.design) == ((3, 3, 1), (3, 4, 1))


# non-default values measured to move the estimate or its se on one
# 300-row-per-source study replicate
BINDING_OPTIONS = {"ratio_clip": [0.8, 1.25], "propensity_clip": [0.55, 0.6],
                   "grid_points": 51, "cross_fit": True}


def test_every_parsed_option_changes_the_estimate():
    assert set(BINDING_OPTIONS) == set(default_config_dict()["options"])
    data = generate_dataset(named_scenario("moderately_aligned", n_per_source=300), seed=11)

    def run(blob):
        cfg = parse_config_dict(blob)
        rep = one_step_estimate(data, cfg.design, cfg.estimand, options=cfg.options)
        return rep.estimate, rep.se

    base = run(default_config_dict())
    for key, value in BINDING_OPTIONS.items():
        blob = default_config_dict()
        blob["options"][key] = value
        assert run(blob) != base, key


def test_parse_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError, match="cannot read config"):
        parse_config(str(missing))
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(EmptyFile):
        parse_config(str(empty))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON at line 1"):
        parse_config(str(bad))


def test_config_hash_is_content_addressed():
    a = default_config_dict()
    b = default_config_dict()
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    b["level"] = 0.9
    assert config_hash(a) != config_hash(b)


# ------------------------------------------------------------------ data

def test_ingest_four_column_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("z1,z2,z3,source\n1.5,0,0.25,1\n1.25,1,0.75,2\n")
    data, label_map = ingest_csv(str(p), {"z": ["z1", "z2", "z3"], "source": "source"})
    assert data.z.shape == (2, 3)
    assert data.k == 2
    assert label_map == {"1": 1, "2": 2}
    np.testing.assert_array_equal(data.z[0], [1.5, 0.0, 0.25])


def test_ingest_remaps_string_labels(tmp_path):
    p = tmp_path / "trial.csv"
    p.write_text("x1,y,arm\n0.5,0.25,704\n0.75,0.5,703\n0.25,0.125,704\n")
    data, label_map = ingest_csv(str(p), {"z": ["x1", "y"], "source": "arm"})
    assert label_map == {"703": 1, "704": 2}
    np.testing.assert_array_equal(data.source, [2, 1, 2])


def test_ingest_preserves_float_text_exactly(tmp_path):
    text = "0.12345678901234567"
    p = tmp_path / "f.csv"
    p.write_text(f"z1,z2,source\n{text},1.0,1\n")
    data, _ = ingest_csv(str(p), {"z": ["z1", "z2"], "source": "source"})
    assert data.z[0, 0] == float(text)
    assert repr(float(data.z[0, 0])).startswith("0.123456789012345")


def test_ingest_rejections(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("z1,z2,source\n1.0,oops,1\n")
    with pytest.raises(NonNumericCell) as err:
        ingest_csv(str(p), {"z": ["z1", "z2"], "source": "source"})
    assert "z2" in str(err.value) and "2" in str(err.value)

    p.write_text("z1,source\n1.0,1\n")
    with pytest.raises(MissingColumn, match="'z2'"):
        ingest_csv(str(p), {"z": ["z1", "z2"], "source": "source"})

    p.write_text("")
    with pytest.raises(EmptyFile, match="no header"):
        ingest_csv(str(p), {"z": ["z1"], "source": "source"})

    p.write_text("z1,source\n")
    with pytest.raises(EmptyFile, match="no data rows"):
        ingest_csv(str(p), {"z": ["z1"], "source": "source"})

    p.write_text("z1,z2,source\n1.0\n")          # ragged row, z2 missing
    with pytest.raises(NonNumericCell):
        ingest_csv(str(p), {"z": ["z1", "z2"], "source": "source"})

    with pytest.raises(ParseError, match="column mapping"):
        ingest_csv(str(p), {"z": [], "source": "source"})


# ------------------------------------------------------------- delta grid

def test_parse_grid_inclusive_endpoint():
    grid = _parse_grid("0:0.01:0.001")
    assert len(grid) == 11
    assert grid[0] == 0.0 and grid[-1] == 0.01
    with pytest.raises(ValueError, match="start:stop:step"):
        _parse_grid("0:0.1")
    with pytest.raises(ValueError, match="positive"):
        _parse_grid("0:0.1:-0.01")


def test_parse_grid_length_cap():
    grid = _parse_grid("0:0.05:0.0001")
    assert len(grid) == 501
    assert grid == [round(i * 0.0001, 12) for i in range(501)]
    assert len(_parse_grid(f"0:{_MAX_GRID_POINTS - 1}:1")) == _MAX_GRID_POINTS
    with pytest.raises(ValueError, match="more than"):
        _parse_grid(f"0:{_MAX_GRID_POINTS}:1")
    assert _parse_grid("1:0:0.5") == []


# -------------------------------------------------------------- commands

def _study_csv(tmp_path, n=300, seed=11):
    sc = named_scenario("moderately_aligned", n_per_source=n)
    data = generate_dataset(sc, seed=seed)
    lines = ["z1,z2,z3,source"]
    for i in range(data.z.shape[0]):
        vals = [repr(float(v)) for v in data.z[i]]
        lines.append(",".join(vals + [str(int(data.source[i]))]))
    p = tmp_path / "study.csv"
    p.write_text("\n".join(lines) + "\n")
    return p


def _study_config(tmp_path, seed=11):
    blob = default_config_dict()
    blob["seed"] = seed
    p = tmp_path / "config.json"
    p.write_text(json.dumps(blob))
    return p


def test_config_dump_round_trip(tmp_path, capsys):
    out = tmp_path / "cfg.json"
    assert main(["config-dump", "--out", str(out)]) == 0
    cfg = parse_config(str(out))
    assert cfg.design.k == 4
    again = tmp_path / "cfg2.json"
    assert main(["config-dump", "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wrote default config" in captured.err


def test_simulate_writes_one_row_per_variant(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--scenario", "strongly_aligned", "--shift", "none",
               "--reps", "2", "--n", "200", "--seed", "7",
               "--variants", "target_only,naive_fusion", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("scenario,shift,variant,")
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "target_only"
    assert lines[2].split(",")[2] == "naive_fusion"
    assert capsys.readouterr().out == ""


def test_simulate_reruns_byte_identical(tmp_path):
    args = ["simulate", "--scenario", "strongly_aligned", "--reps", "2",
            "--n", "200", "--seed", "7", "--variants", "target_only",
            "--threads", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_estimate_writes_report_json(tmp_path, capsys):
    data = _study_csv(tmp_path)
    cfgp = _study_config(tmp_path)
    out = tmp_path / "report.json"
    rc = main(["estimate", "--config", str(cfgp), "--data", str(data),
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    for key in ("estimate", "se", "ci_lo", "ci_hi", "level", "variant", "beta",
                "beta_se", "n_per_source", "clip_counts", "seed", "plugin",
                "source_map", "config_hash"):
        assert key in payload
    assert payload["variant"] == "efficient_fusion"
    assert payload["seed"] == 11
    assert payload["source_map"] == {"1": 1, "2": 2, "3": 3, "4": 4}
    assert len(payload["beta"]) == 4
    assert payload["ci_lo"] < payload["estimate"] < payload["ci_hi"]
    assert len(payload["config_hash"]) == 16
    assert capsys.readouterr().out == ""


def test_estimate_reruns_byte_identical(tmp_path):
    data = _study_csv(tmp_path)
    cfgp = _study_config(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["estimate", "--config", str(cfgp), "--data", str(data),
                 "--out", str(a)]) == 0
    assert main(["estimate", "--config", str(cfgp), "--data", str(data),
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sensitivity_sweep(tmp_path):
    data = _study_csv(tmp_path)
    cfgp = _study_config(tmp_path)
    out = tmp_path / "sweep.csv"
    rc = main(["sensitivity", "--config", str(cfgp), "--data", str(data),
               "--delta-grid", "0:0.004:0.001", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "delta,estimate,se,ci_lo,ci_hi,width,target_only_width"
    assert len(lines) == 6
    widths = [float(l.split(",")[5]) for l in lines[1:]]
    assert all(b > a for a, b in zip(widths, widths[1:]))
    tgt = {l.split(",")[6] for l in lines[1:]}
    assert len(tgt) == 1


def test_user_errors_exit_one(tmp_path, capsys):
    # usage problem
    assert main(["simulate", "--scenario", "sideways", "--seed", "1",
                 "--out", str(tmp_path / "x.csv")]) == 1
    # malformed config
    bad = tmp_path / "bad.json"
    bad.write_text('{"design": {"d": 3, "k": 4, "wieght": 1}}')
    assert main(["estimate", "--config", str(bad),
                 "--data", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path / "r.json")]) == 1
    # missing data file
    cfgp = _study_config(tmp_path)
    assert main(["estimate", "--config", str(cfgp),
                 "--data", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path / "r.json")]) == 1
    # bad grid
    data = _study_csv(tmp_path, n=60, seed=3)
    assert main(["sensitivity", "--config", str(cfgp), "--data", str(data),
                 "--delta-grid", "0:0.1", "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("grid, message", [
    ("0:1:1e-300", f"more than {_MAX_GRID_POINTS} points"),
    ("0:inf:1", "must be finite"),
    ("nan:1:0.1", "must be finite"),
    ("0:nan:0.1", "must be finite"),
])
def test_sensitivity_rejects_unbounded_grids(tmp_path, capsys, grid, message):
    data = _study_csv(tmp_path, n=60, seed=3)
    cfgp = _study_config(tmp_path)
    out = tmp_path / "s.csv"
    assert main(["sensitivity", "--config", str(cfgp), "--data", str(data),
                 "--delta-grid", grid, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sensitivity_parses_grid_before_reading_data(tmp_path, capsys):
    cfgp = _study_config(tmp_path)
    assert main(["sensitivity", "--config", str(cfgp),
                 "--data", str(tmp_path / "missing.csv"), "--delta-grid", "0:1:1e-300",
                 "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert f"more than {_MAX_GRID_POINTS} points" in err
    assert "missing.csv" not in err


def test_simulate_bounds_threads(tmp_path, monkeypatch, capsys):
    # two reps start at most two worker threads, whatever the pool size
    args = ["simulate", "--scenario", "strongly_aligned", "--reps", "2", "--n", "50",
            "--seed", "5", "--variants", "target_only,efficient_fusion"]
    zero = tmp_path / "zero.csv"
    assert main(args + ["--threads", "0", "--out", str(zero)]) == 1
    assert "--threads must be at least 1, got 0" in capsys.readouterr().err
    assert not zero.exists()
    one, many = tmp_path / "one.csv", tmp_path / "many.csv"
    assert main(args + ["--threads", "1", "--out", str(one)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert main(args + ["--threads", "3", "--out", str(many)]) == 0
    assert "--threads 3 clamped to the 2 available CPUs" in capsys.readouterr().err
    assert many.read_bytes() == one.read_bytes()


def test_simulate_threads_match_serial_with_flags(tmp_path, monkeypatch):
    # two of these three reps end the moment match unconverged; the flag
    # column must not depend on the thread count
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    args = ["simulate", "--scenario", "poorly_aligned", "--shift", "beta_shift",
            "--reps", "3", "--n", "60", "--seed", "1"]
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(args + ["--threads", "1", "--out", str(one)]) == 0
    assert main(args + ["--threads", "2", "--out", str(two)]) == 0
    assert two.read_bytes() == one.read_bytes()
    assert one.read_text().rstrip("\n").endswith(",NoConvergence")


def test_estimate_prints_validation_notes(tmp_path, capsys):
    # a weak source at an index the estimand ignores is a note, not an
    # error: it goes to stderr and the report flags it
    blob = default_config_dict()
    blob["design"]["aligned"]["2"] = [1, 3, 4]
    blob["design"]["weak"]["2"] = [2]
    blob["design"]["weight_specs"]["2,2"] = {"family": "exponential_tilt", "terms": ["z2"]}
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(blob))
    data = _study_csv(tmp_path, n=100)
    out = tmp_path / "r.json"
    assert main(["estimate", "--config", str(cfgp), "--data", str(data),
                 "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "note: weak sources at index 2 are ignored (index not relevant)" in err
    assert "UserWarning" in json.loads(out.read_text())["flags"]


def test_bandwidth_option_is_rejected(tmp_path, capsys):
    blob = default_config_dict()
    blob["options"]["bandwidth"] = "silverman"
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(blob))
    data = _study_csv(tmp_path, n=60, seed=3)
    assert main(["estimate", "--config", str(cfgp), "--data", str(data),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert "config.options.bandwidth: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("path, value, message", [
    (("options", "grid_points"), 0, "config.options: grid_points: expected an integer"),
    (("options", "grid_points"), 1, "config.options: grid_points: expected an integer"),
    (("options", "grid_points"), 2002, "config.options: grid_points: expected an integer"),
    (("options", "ratio_clip"), "ab", "config.options: ratio_clip: expected [lo, hi]"),
    (("options", "ratio_clip"), [5, 0.1], "config.options: ratio_clip: expected [lo, hi]"),
    (("options", "propensity_clip"), [0.9, 0.1],
     "config.options: propensity_clip: expected [lo, hi]"),
    (("options", "cross_fit"), "no", "config.options: cross_fit: expected true or false"),
    (("design", "weight_specs", "3,4"),
     {"family": "truncated_above_threshold", "threshold": float("nan")},
     "config.design.weight_specs.3,4.threshold: truncation threshold must be a finite"),
    (("variant",), "overparametrized+x", "config.variant: invalid literal for int()"),
    (("variant",), "overparametrized+0",
     "config.variant: overparametrized variant needs extra_terms >= 1"),
])
def test_malformed_options_exit_before_reading_data(tmp_path, capsys, path, value, message):
    blob = default_config_dict()
    node = blob
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(blob))
    assert main(["estimate", "--config", str(cfgp), "--data", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "missing.csv" not in err


def test_overparametrized_keeps_a_truncation_threshold(tmp_path):
    # the threshold belongs to its weight model, so every variant sees it; a
    # config names the variant as an object or by its label
    data = _study_csv(tmp_path)
    for variant in ({"kind": "overparametrized", "extra_terms": 1}, "overparametrized+1"):
        blob = default_config_dict()
        blob["design"]["weight_specs"]["3,4"] = {
            "family": "truncated_above_threshold", "threshold": 0.05}
        blob["variant"] = variant
        cfgp = tmp_path / "config.json"
        cfgp.write_text(json.dumps(blob))
        out = tmp_path / "r.json"
        assert main(["estimate", "--config", str(cfgp), "--data", str(data),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["variant"] == "overparametrized+1"
        # (3, 2) keeps 2 terms + 1 and (3, 3) 1 term + 1; (3, 4) has no parameter
        assert len(payload["beta"]) == len(payload["beta_se"]) == 5


def test_internal_errors_exit_two(tmp_path, monkeypatch, capsys):
    def kaput(*args, **kwargs):
        raise RuntimeError("kaput")
    monkeypatch.setattr(cli, "run_monte_carlo", kaput)
    rc = main(["simulate", "--scenario", "fully_aligned", "--reps", "1",
               "--n", "200", "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "internal error" in capsys.readouterr().err
