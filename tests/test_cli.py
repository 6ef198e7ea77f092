import json
import os
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import weakfuse.cli as cli
from weakfuse.errors import (
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    ParseError,
    SemanticError,
    WeakfuseError,
)
from weakfuse.cli import (
    _MAX_DELTAS,
    _parse_grid,
    config_hash,
    default_config_dict,
    ingest_csv,
    main,
    parse_config,
    parse_config_dict,
)
from weakfuse.estimator import one_step_estimate, wald_interval
from weakfuse.gradients import EstimandSpec
from weakfuse.model import layout_from_design
from weakfuse.simulation import generate_dataset, named_scenario, study_design

from oracles import ingest_csv_by_csv_reader, sensitivity_interval
from test_estimator import _first_rows


# ---------------------------------------------------------------- config

def test_default_config_round_trips():
    cfg = parse_config_dict(default_config_dict())
    assert cfg.design.d == 3 and cfg.design.k == 4
    assert cfg.design.weak_at(3) == frozenset({2, 3, 4})
    assert cfg.estimand.kind == "ate"
    assert cfg.variant.label() == "efficient_fusion"
    assert cfg.level == 0.95
    assert cfg.seed is None


def test_default_config_is_the_study_design():
    # the CLI workloads read the first, the acceptance Monte Carlo the second
    assert parse_config_dict(default_config_dict()).design == study_design()


def _leaf_paths(node, path=()):
    """Key paths to every scalar (or null) in a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for k, v in items for p in _leaf_paths(v, path + (k,))]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6),
                                                                 inner, max_size=3),
    max_leaves=6)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_config_fuzz_returns_or_raises_a_package_error(data):
    # one to three leaves of the default config replaced by arbitrary JSON
    # values: parsing either succeeds or names the problem
    blob = default_config_dict()
    paths = data.draw(st.lists(st.sampled_from(_leaf_paths(blob)), min_size=1,
                               max_size=3, unique=True))
    for path in paths:
        node = blob
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(_JSON)
    try:
        parse_config_dict(blob)
    except WeakfuseError:
        pass


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
                   "cross_fit": True}


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

    # each estimand kind and weight family, then each key it takes set apart
    # from the base block's value: all of them parse to distinct configs
    tilt = {"family": "exponential_tilt", "terms": ["z1*log(z3)"]}
    truncation = {"family": "truncated_above_threshold", "threshold": 0.05}
    blocks = [
        (("estimand",), {"kind": "ate"}, {}),
        (("estimand",), {"kind": "working_linear"}, {"coefficient": "intercept"}),
        (("estimand",), {"kind": "moment"}, {"index": 2, "power": 2}),
        (("design", "weight_specs", "3,2"), tilt, {"terms": ["z1*log1m(z3)"]}),
        (("design", "weight_specs", "3,2"), truncation, {"threshold": 0.1}),
    ]
    parsed = []
    for path, block, changes in blocks:
        if path == ("estimand",):
            assert {*block, *changes} == {"kind", *EstimandSpec._READS[block["kind"]]}
        for value in [block] + [dict(block, **{key: v}) for key, v in changes.items()]:
            blob = default_config_dict()
            node = blob
            for part in path[:-1]:
                node = node[part]
            node[path[-1]] = value
            cfg = parse_config_dict(blob)
            parsed.append((cfg.estimand, cfg.design))
    assert len(set(parsed)) == len(parsed)


@pytest.mark.parametrize("path, value, message", [
    (("design", "weight_specs", "3,2", "threshold"), 0.7,
     "config.design.weight_specs.3,2.threshold: exponential tilt takes no threshold"),
    (("design", "weight_specs", "3,4"),
     {"family": "truncated_above_threshold", "threshold": 0.05, "terms": ["z1*log(z3)"]},
     "config.design.weight_specs.3,4.terms: truncation family takes no basis terms"),
    (("estimand",), {"kind": "ate", "index": 9}, "config.estimand.index: not read by kind 'ate'"),
    (("estimand",), {"kind": "ate", "power": 4}, "config.estimand.power: not read by kind 'ate'"),
    (("estimand",), {"kind": "ate", "coefficient": "slope"},
     "config.estimand.coefficient: not read by kind 'ate'"),
    (("estimand",), {"kind": "working_linear", "index": 2},
     "config.estimand.index: not read by kind 'working_linear'"),
    (("estimand",), {"kind": "moment", "coefficient": "intercept"},
     "config.estimand.coefficient: not read by kind 'moment'"),
])
def test_out_of_kind_keys_exit_one_naming_the_key(tmp_path, capsys, path, value, message):
    # a key the block's kind or family does not read is an error, never
    # silently dropped, even at its default value
    blob = default_config_dict()
    node = blob
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_config_dict(blob)
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(blob))
    assert main(["estimate", "--config", str(cfgp), "--data", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert message in capsys.readouterr().err


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
    # a column name that is not a string names no header cell, even when unhashable
    for name, shown in ((1, "1"), (["z1"], "['z1']")):
        with pytest.raises(MissingColumn, match=re.escape(f"column {shown} not in header")):
            ingest_csv(str(p), {"z": [name], "source": "source"})

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


@pytest.mark.parametrize("body", ["1.0,1\n2.0,\n3.0,3\n", "1.0,1\n2.0, \n3.0,3\n",
                                  "1.0,1\n2.0\n3.0,3\n"])
def test_ingest_rejects_a_blank_source_label(tmp_path, body):
    # a blank label would sort first and become source 1, the target
    p = tmp_path / "d.csv"
    p.write_text("z1,source\n" + body)
    with pytest.raises(ParseError, match=re.escape(f"data {p}: row 3, column 'source': "
                                                   "blank source label")):
        ingest_csv(str(p), {"z": ["z1"], "source": "source"})


def test_ingest_names_the_first_bad_cell_in_row_order(tmp_path):
    # columns are converted one at a time, but the error still names the
    # first bad cell reading row by row: z2 in row 2, not z1 in row 3
    p = tmp_path / "d.csv"
    mapping = {"z": ["z1", "z2"], "source": "source"}
    p.write_text("z1,z2,source\n1.0,oops,1\nbad,2.0,1\n")
    with pytest.raises(NonNumericCell) as err:
        ingest_csv(str(p), mapping)
    assert (err.value.row, err.value.column, err.value.value) == (2, "z2", "oops")

    p.write_text("z1,z2,source\n1.0,2.0,1\n3.0\nbad,2.0,1\n")   # ragged row 3
    with pytest.raises(NonNumericCell) as err:
        ingest_csv(str(p), mapping)
    assert (err.value.row, err.value.column, err.value.value) == (3, "z2", "")


def test_ingest_parses_cells_as_float_does(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("z1,z2,source\n 1.5,1_0,1\n")
    data, _ = ingest_csv(str(p), {"z": ["z1", "z2"], "source": "source"})
    assert data.z.tolist() == [[float(" 1.5"), float("1_0")]] == [[1.5, 10.0]]


# text cells hold no line break, quote or comma, so the rows stay as drawn
_CELLS = st.sampled_from(["", "nan", "inf", "-inf", "1e400", "0", "1", "0.5", "-2.25",
                          " 3", "1_0", "x", '"2"', "NaN", "1e-400"]) | st.text(
    st.characters(exclude_characters='\r\n",', exclude_categories=("Cs",)), max_size=6)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.booleans(),
       body=st.lists(st.lists(_CELLS, max_size=5), max_size=6))
def test_ingest_fuzz_returns_or_raises_a_package_error(tmp_path, header, body):
    # random cells, ragged rows included: ingest either returns a dataset
    # or names the problem
    p = tmp_path / "fuzz.csv"
    rows = ([["z1", "z2", "source"]] if header else []) + body
    p.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    try:
        data, _ = ingest_csv(str(p), {"z": ["z1", "z2"], "source": "source"})
    except WeakfuseError:
        return
    assert data.z.shape == (len(rows) - 1, 2)


def _ingest_outcome(read, path):
    """What an ingest makes of a file: the dataset's bytes and label map, or
    the class and message of what it raised; any warning counts as raised."""
    mapping = {"z": ["z1", "z2"], "source": "source"}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data, label_map = read(str(path), mapping)
    except Exception as exc:
        return type(exc), str(exc)
    return (data.z.shape, data.z.tobytes(), data.source.tolist(), data.k,
            list(label_map.items()))


def _assert_ingest_matches_reference(path, text):
    path.write_bytes(text.encode("utf-8"))
    assert _ingest_outcome(ingest_csv, path) == _ingest_outcome(ingest_csv_by_csv_reader, path)


@pytest.mark.parametrize("text", [
    "z1,z2,source\n1.5,-0.25,a\n2,3,b\n",                     # plain
    "z1,z2,source\r\n1.5,-0.25,a\r\n2,3,b",                    # CRLF, no final break
    "z1,z2,source\r1.5,-0.25,a\r2,3,b\r",                      # lone CR
    "z1,z2,source\n1.5,-0.25,a\r\n2,3,b\n",                   # mixed breaks
    'z1,z2,source\n"1.5",-0.25,"a,b"\n2,3,b\n',                # quoted cells and label
    "z1,z2,source\n1.5,-0.25,a\n\n2,3,b\n",                   # blank line
    "z1,z2,source\n\n",                                       # only a blank line
    "z1,z2,source\n",                                          # header only
    "", "\n",                                                  # no header
    "z1,z2,source\n 1.5 ,\t2,  a \n",                         # padded cells
    "z1,z2,source\n1_0,2,a\n",                                # float() accepts 1_0
    "z1,z2,source\nnan,inf,a\n",                              # non-finite
    "z1,z2,source\n1e400,1,a\n",                              # overflow
    "z1,z2,source\n1,2,a\n3\n",                               # ragged, short
    "z1,z2,source\n1,2,a,extra\n3,4,b\n",                     # ragged, long
    "z1,z2,source\n1,2\n",                                     # missing label
    "z1,z2,source\n1,2,a\n   \n3,4,b\n",                       # whitespace-only line
    "z1,z2,source\n1,2,é\n3,4,日本\n5,6,e\n",                  # non-ASCII labels
    "z1,z2,source\n\u0661\u0662,2,a\n",                        # Arabic-Indic digits
    "z1,z2,source\n\u20032,2,a\n",                             # Unicode space
    "z1,z2,source\n1\x00,2,a\n3,4,b\x00\n",                   # NUL
    " z1 ,source,z2\n1,a,2\n",                                 # padded, reordered header
    "z1,source\n1,a\n",                                       # missing column
    "z1,z2,source\n" + "9," * 70_000 + "1,a\n",                # line over the csv field limit
    "z1,z2,source\n1,2," + "x" * 140_000 + "\n",               # cell over the csv field limit
])
def test_ingest_matches_the_csv_reader_on_named_cases(tmp_path, text):
    _assert_ingest_matches_reference(tmp_path / "d.csv", text)


# odd cells, labels and rows are drawn rarely enough that many files reach
# the end of the one-pass parse
_FLOAT = st.floats().map(repr)
_NUMBER = st.one_of(*[_FLOAT] * 15, st.sampled_from(
    ["1", " 2 ", "\t-3", "1_0", "nan", "-inf", "1e400", "", " ", "x", "0x10", "\u0661",
     '"4"', '" 5"']))
_LABEL = st.sampled_from(["1", "2"] * 8 + [" 2 ", "a", "é", "日本", '"a,b"', '"x"', "", " ",
                                           "\x00"])
_ROW = st.one_of(*[st.tuples(_NUMBER, _NUMBER, _LABEL).map(list)] * 15,
                 st.lists(_NUMBER | _LABEL, max_size=4))
_HEADER = st.sampled_from([["z1", "z2", "source"]] * 4 + [
    None, ["source", " z2", "z1 "], ["z1", "z2"], ["z1", "z2", "source", "z1"]])


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=_HEADER, body=st.lists(_ROW, max_size=12),
       newline=st.sampled_from(["\n", "\n", "\r\n", "\r"]), final=st.booleans())
def test_ingest_matches_the_csv_reader(tmp_path, header, body, newline, final):
    # the one-pass parse of plain text must give the csv reader's dataset,
    # or raise what it raises, and write no warning
    rows = ([header] if header else []) + body
    text = newline.join(",".join(row) for row in rows) + (newline if final else "")
    _assert_ingest_matches_reference(tmp_path / "fuzz.csv", text)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=st.lists(st.tuples(_FLOAT, _FLOAT, st.sampled_from(["1", "2", " 3", "é", "日本"])),
                     min_size=1, max_size=150),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_ingest_matches_the_csv_reader_on_well_formed_tables(tmp_path, body, newline):
    # every cell parses, so these files reach the end of the one-pass parse
    text = newline.join(["z1,z2,source"] + [",".join(row) for row in body]) + newline
    _assert_ingest_matches_reference(tmp_path / "table.csv", text)


def test_ingest_reads_a_csv_with_a_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a byte-order mark
    p = tmp_path / "d.csv"
    p.write_bytes("\ufeffz1,z2,source\n1.5,0,a\n2.5,1,b\n".encode("utf-8"))
    data, label_map = ingest_csv(str(p), {"z": ["z1", "z2"], "source": "source"})
    assert data.z.tolist() == [[1.5, 0.0], [2.5, 1.0]]
    assert label_map == {"a": 1, "b": 2}
    # a byte that is not UTF-8 is still named by its line
    p.write_bytes(b"\xef\xbb\xbfz1,source\n1,a\n2\xff,b\n")
    with pytest.raises(ParseError, match=re.escape("line 3 is not UTF-8 text (byte 0xff)")):
        ingest_csv(str(p), {"z": ["z1"], "source": "source"})


def test_config_with_a_byte_order_mark_parses(tmp_path):
    p = tmp_path / "config.json"
    p.write_bytes(b"\xef\xbb\xbf" + json.dumps(default_config_dict()).encode("utf-8"))
    assert parse_config(str(p)).raw == default_config_dict()


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
    assert len(_parse_grid(f"0:{_MAX_DELTAS - 1}:1")) == _MAX_DELTAS
    with pytest.raises(ValueError, match="more than"):
        _parse_grid(f"0:{_MAX_DELTAS}:1")
    assert _parse_grid("1:0:0.5") == []


# -------------------------------------------------------------- commands

def _study_csv(tmp_path, n=300, seed=11):
    sc = named_scenario("moderately_aligned", n_per_source=n)
    return _data_csv(tmp_path, generate_dataset(sc, seed=seed))


def _data_csv(tmp_path, data):
    lines = ["z1,z2,z3,source"]
    for i in range(data.z.shape[0]):
        vals = [repr(float(v)) for v in data.z[i]]
        lines.append(",".join(vals + [str(int(data.source[i]))]))
    p = tmp_path / "study.csv"
    p.write_text("\n".join(lines) + "\n")
    return p


def _constant_z1(z, source):
    z[:, 0] = 1.3


def _three_rows_of(s, to):
    """A data edit that keeps three rows of source s and relabels the rest
    as source `to`."""
    def edit(z, source):
        source[np.flatnonzero(source == s)[3:]] = to
    return edit


@pytest.mark.parametrize("seed, rows, edit, message", [
    # the index-3 panel's z2 = 0 branch holds one training row
    (1, 5, None, "error: index 3, branch z2 = 0: 1 training row\n"),
    # the moment match diverges with every normalizer finite
    (247147, 20, _constant_z1,
     "error: tilt normalizer or moments for index 3, source 2 are not finite at 18 states"),
    # the weak source 2 keeps three rows, too few for its density ratio
    (1, 60, _three_rows_of(2, 3), "error: too few rows to fit the ratio for source 2\n"),
])
def test_small_study_inputs_exit_one_naming_the_cause(tmp_path, capsys, seed, rows, edit,
                                                      message):
    data = _data_csv(tmp_path, _first_rows(seed, [rows] * 4, edit))
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(default_config_dict()))
    assert main(["estimate", "--config", str(cfgp), "--data", str(data),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert message in capsys.readouterr().err


def _two_coordinates(blob, relevant=(1, 2)):
    """The study config read as d = 2 over the CSV's z1 and z3, all aligned."""
    blob["columns"] = {"z": ["z1", "z3"], "source": "source"}
    blob["design"] = {"d": 2, "k": 4, "relevant": list(relevant),
                      "aligned": {"1": [1, 2, 3, 4], "2": [1, 2, 3, 4]}}
    blob["estimand"] = {"kind": "working_linear"}


def _index2_scope_is_source_4(blob):
    blob["design"]["aligned"]["2"] = [4]
    blob["design"]["weak"]["3"] = [2, 3]
    del blob["design"]["weight_specs"]["3,4"]


def _weak_below_the_moment(blob):
    blob["estimand"] = {"kind": "moment", "index": 3}
    blob["design"]["relevant"] = [1, 2, 3]
    blob["design"]["aligned"]["2"] = [1, 3, 4]
    blob["design"]["weak"]["2"] = [2]
    blob["design"]["weight_specs"]["2,2"] = {"family": "exponential_tilt", "terms": ["z2"]}


@pytest.mark.parametrize("edit, z_edit, message", [
    (lambda blob: blob["design"].update(relevant=[2, 3]), None,
     "indices 1 and 3 must be relevant for this estimand"),
    (lambda blob: blob.update(estimand={"kind": "working_linear"}), None,
     "the working-linear estimand needs d = 2"),
    (lambda blob: _two_coordinates(blob, relevant=(2,)), None,
     "indices 1 and 2 must be relevant for this estimand"),
    (_two_coordinates, _constant_z1, "covariate is (numerically) constant"),
    (lambda blob: blob.update(estimand={"kind": "moment", "index": 4}), None,
     "moment index 4 exceeds d = 3"),
    (lambda blob: blob.update(estimand={"kind": "moment", "index": 3}), None,
     "moment of index 3 needs index 2 to be relevant"),
    (_weak_below_the_moment, None, "weak sources below the moment index are not supported"),
    # the mean difference's propensity trains on three rows
    (_index2_scope_is_source_4, _three_rows_of(4, 1), "too few rows in the index-2 scope"),
])
def test_an_estimand_the_design_cannot_seed_exits_one_naming_it(tmp_path, capsys, edit,
                                                                  z_edit, message):
    blob = default_config_dict()
    edit(blob)
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(blob))
    data = _data_csv(tmp_path, _first_rows(1, [60] * 4, z_edit))
    assert main(["estimate", "--config", str(cfgp), "--data", str(data),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _study_config(tmp_path, seed=11):
    blob = default_config_dict()
    blob["seed"] = seed
    p = tmp_path / "config.json"
    p.write_text(json.dumps(blob))
    return p


# the config-dump text of the study configuration, byte for byte
_STUDY_CONFIG_TEXT = """\
{
  "columns": {
    "source": "source",
    "z": [
      "z1",
      "z2",
      "z3"
    ]
  },
  "design": {
    "aligned": {
      "1": [
        1
      ],
      "2": [
        1,
        2,
        3,
        4
      ],
      "3": [
        1
      ]
    },
    "d": 3,
    "k": 4,
    "relevant": [
      1,
      3
    ],
    "weak": {
      "3": [
        2,
        3,
        4
      ]
    },
    "weight_specs": {
      "3,2": {
        "family": "exponential_tilt",
        "terms": [
          "z1*log(z3)",
          "z1*z2*log(z3)"
        ]
      },
      "3,3": {
        "family": "exponential_tilt",
        "terms": [
          "z1*log1m(z3)"
        ]
      },
      "3,4": {
        "family": "exponential_tilt",
        "terms": [
          "z1*z2*log(z3)"
        ]
      }
    }
  },
  "estimand": {
    "kind": "ate"
  },
  "level": 0.95,
  "options": {
    "cross_fit": false,
    "propensity_clip": [
      0.01,
      0.99
    ],
    "ratio_clip": [
      0.001,
      1000.0
    ]
  },
  "seed": null,
  "variant": {
    "extra_terms": 0,
    "kind": "efficient_fusion"
  }
}
"""


def test_config_dump_round_trip(tmp_path, capsys):
    out = tmp_path / "cfg.json"
    assert main(["config-dump", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == _STUDY_CONFIG_TEXT
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
    # a variant list with no variant in it
    assert main(["simulate", "--scenario", "fully_aligned", "--seed", "1", "--variants", ",",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.endswith("error: no variants given\n")
    # a design for four sources on data with three
    three = _data_csv(tmp_path, _first_rows(1, [60, 60, 60, 0]))
    assert main(["estimate", "--config", str(_study_config(tmp_path)), "--data", str(three),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == "error: design is for d=3, k=4; data has d=3, k=3\n"
    # a whitespace-only line is a row whose first cell is not a number
    blank = tmp_path / "blank.csv"
    blank.write_text("z1,z2,z3,source\n1.5,1,0.3,1\n   \n1.2,0,0.4,2\n")
    assert main(["estimate", "--config", str(_study_config(tmp_path)), "--data", str(blank),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == "error: non-numeric value '   ' at row 3, column 'z1'\n"
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


@pytest.mark.parametrize("which", ["config", "data"])
def test_non_utf8_file_exits_one_naming_file_and_line(tmp_path, capsys, which):
    # one byte 0xff on line 3 of the config or of the CSV
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(default_config_dict(), indent=1))
    data = _study_csv(tmp_path, n=60, seed=3)
    bad = cfgp if which == "config" else data
    lines = bad.read_bytes().split(b"\n")
    lines[2] = lines[2][:4] + b"\xff" + lines[2][4:]
    bad.write_bytes(b"\n".join(lines))
    message = f"{which} {bad}: line 3 is not UTF-8 text (byte 0xff)"
    with pytest.raises(ParseError) as info:
        if which == "config":
            parse_config(str(bad))
        else:
            ingest_csv(str(bad), {"z": ["z1", "z2", "z3"], "source": "source"})
    assert str(info.value) == message
    assert main(["estimate", "--config", str(cfgp), "--data", str(data),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_csv_cell_over_the_field_limit_exits_one_naming_the_row(tmp_path, capsys):
    # a label longer than the csv reader's field limit (131072 characters by
    # default) is a data error, not an internal one
    cfgp = _study_config(tmp_path)
    data = tmp_path / "long.csv"
    data.write_text(f"z1,z2,z3,source\n0.1,1,0.2,{'x' * 140000}\n0.3,0,0.4,1\n0.5,1,0.6,2\n")
    message = f"data {data}: row 2: field larger than field limit (131072)"
    with pytest.raises(ParseError, match=re.escape(message)):
        ingest_csv(str(data), {"z": ["z1", "z2", "z3"], "source": "source"})
    assert main(["estimate", "--config", str(cfgp), "--data", str(data),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("grid, message", [
    ("0:1:1e-300", f"more than {_MAX_DELTAS} points"),
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
    assert f"more than {_MAX_DELTAS} points" in err
    assert "missing.csv" not in err


def test_sensitivity_rejects_a_negative_delta_before_reading_data(tmp_path, capsys):
    cfgp = _study_config(tmp_path)
    out = tmp_path / "s.csv"
    assert main(["sensitivity", "--config", str(cfgp),
                 "--data", str(tmp_path / "missing.csv"), "--delta-grid=-0.1:0.1:0.05",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: sensitivity radius must be nonnegative, got -0.1\n")
    assert not out.exists()


def test_sensitivity_sweep_matches_sensitivity_interval_row_by_row(tmp_path, monkeypatch):
    # the sweep widens one Wald interval per row; every byte equals a
    # rendering that calls the oracle sensitivity_interval at each delta
    reports = []

    def recorded(*args, **kwargs):
        reports.append(one_step_estimate(*args, **kwargs))
        return reports[-1]
    monkeypatch.setattr(cli, "one_step_estimate", recorded)
    data = _study_csv(tmp_path, n=60, seed=3)
    cfgp = _study_config(tmp_path)
    out = tmp_path / "sweep.csv"
    grid = "0:0.5:0.001"
    assert main(["sensitivity", "--config", str(cfgp), "--data", str(data),
                 "--delta-grid", grid, "--out", str(out)]) == 0
    fused, target = reports
    level = parse_config(str(cfgp)).level
    t_lo, t_hi = wald_interval(target.estimate, target.se, level)
    lines = ["delta,estimate,se,ci_lo,ci_hi,width,target_only_width"]
    for dlt in _parse_grid(grid):
        lo, hi = sensitivity_interval(fused.estimate, fused.se, dlt, level)
        lines.append(",".join(repr(v) for v in (dlt, fused.estimate, fused.se, lo, hi,
                                                hi - lo, t_hi - t_lo)))
    assert len(lines) == 502
    assert out.read_text() == "\n".join(lines) + "\n"
    # delta 0 is the Wald interval; the last delta widens it by 0.5 each side
    lo0, hi0 = wald_interval(fused.estimate, fused.se, level)
    first, last = ([float(v) for v in line.split(",")[3:5]] for line in (lines[1], lines[-1]))
    assert first == [lo0, hi0]
    assert last == [lo0 - 0.5, hi0 + 0.5]


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


@pytest.mark.parametrize("k, aligned", [
    # the propensity trains on source 1 only
    (3, {"1": [1, 2], "2": [1], "3": [1, 3]}),
    # the propensity trains on every row
    (2, {"1": [1, 2], "2": [1], "3": [1]}),
])
def test_mean_difference_rejects_a_non_binary_treatment(tmp_path, capsys, k, aligned):
    # source k draws z2 ~ U(0, 1), so z2 is a continuous past coordinate of
    # the index-3 panel, which has no two arms to read; the true contrast is 2
    rng = np.random.default_rng(4)
    src = np.repeat(np.arange(1, k + 1), 300)
    z1 = rng.uniform(1.0, 2.0, src.size)
    z2 = (rng.uniform(size=src.size) < 0.5).astype(float)
    z2[src == k] = rng.uniform(0.0, 1.0, 300)
    z3 = z1 + 2.0 * z2 + rng.normal(0.0, 0.5, src.size)
    rows = [f"{float(a)!r},{float(b)!r},{float(c)!r},{s}" for a, b, c, s in zip(z1, z2, z3, src)]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(["z1,z2,z3,source"] + rows) + "\n")
    design = {"d": 3, "k": k, "relevant": [1, 2, 3], "aligned": aligned,
              "weak": {}, "weight_specs": {}}
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps({"design": design, "estimand": {"kind": "ate"}}))
    assert main(["estimate", "--config", str(cfgp), "--data", str(data),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert "needs a binary z2" in capsys.readouterr().err


# options that were once parsed: the bandwidths are Silverman's, and a
# panel sizes its own grid
@pytest.mark.parametrize("key, value", [("bandwidth", "silverman"), ("grid_points", 301)],
                         ids=["bandwidth", "grid_points"])
def test_bandwidth_option_is_rejected(tmp_path, capsys, key, value):
    blob = default_config_dict()
    blob["options"][key] = value
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(blob))
    data = _study_csv(tmp_path, n=60, seed=3)
    assert main(["estimate", "--config", str(cfgp), "--data", str(data),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert f"config.options.{key}: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("path, value, message", [
    (("options", "grid_points"), 0, "grid_points: unknown key"),
    (("options", "grid_points"), 1, "grid_points: unknown key"),
    (("options", "grid_points"), 2002, "grid_points: unknown key"),
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
    # only a missing key or null takes a block's default
    (("estimand",), False, "config.estimand: expected an object"),
    (("variant",), "", "config.variant: unknown variant ''"),
    (("options",), 0, "config.options: expected an object"),
    (("columns",), [], "config.columns: expected an object"),
    (("design", "weight_specs"), False, "config.design.weight_specs: expected an object"),
    (("design",), 0, "config.design: required object"),
    (("design", "relevant"), 3, "config.design.relevant: expected a list of integers"),
    (("design", "aligned"), [], "config.design.aligned: expected an object keyed by index"),
    (("design", "weak", "x"), [2], "config.design.weak.x: index keys must be integers"),
    (("design", "weight_specs", "3,2"), "tilt",
     "config.design.weight_specs.3,2: expected an object"),
    (("variant",), 3, "config.variant: expected an object or string"),
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


@pytest.mark.parametrize("path, value, key", [
    (("design", "d"), 3.9, "config.design.d"),
    (("design", "k"), "4", "config.design.k"),
    (("design", "relevant"), [True, 3], "config.design.relevant[0]"),
    (("design", "weak", "3"), [2, 3.0, 4], "config.design.weak.3[1]"),
    (("estimand",), {"kind": "moment", "index": 1.7}, "config.estimand.index"),
    (("estimand",), {"kind": "moment", "power": "2"}, "config.estimand.power"),
    (("variant",), {"kind": "overparametrized", "extra_terms": 2.0},
     "config.variant.extra_terms"),
    (("seed",), True, "config.seed"),
])
def test_config_integers_are_checked_not_coerced(tmp_path, capsys, path, value, key):
    # a bool, float or string where an integer belongs is a parse error naming
    # the key, never silently truncated or converted
    blob = default_config_dict()
    node = blob
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    with pytest.raises(ParseError, match=re.escape(f"{key}: expected an integer")):
        parse_config_dict(blob)
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(blob))
    assert main(["estimate", "--config", str(cfgp), "--data", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert f"{key}: expected an integer" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["config-dump", "simulate", "estimate", "sensitivity"])
def test_an_unwritable_out_exits_one_naming_it(tmp_path, monkeypatch, capsys, command):
    # an output path in a missing directory, or a directory itself, is bad
    # input, not an internal error; it is caught before anything runs, and
    # the check leaves no file behind
    def never(*args, **kwargs):
        raise AssertionError("ran before --out was checked")
    monkeypatch.setattr(cli, "run_monte_carlo", never)
    monkeypatch.setattr(cli, "one_step_estimate", never)
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(default_config_dict()))
    data = _study_csv(tmp_path, n=60, seed=3)
    (tmp_path / "dir").mkdir()
    argv = {"config-dump": ["config-dump"],
            "simulate": ["simulate", "--scenario", "fully_aligned", "--reps", "1",
                         "--n", "60", "--seed", "1", "--variants", "target_only"],
            "estimate": ["estimate", "--config", str(cfgp), "--data", str(data)],
            "sensitivity": ["sensitivity", "--config", str(cfgp), "--data", str(data),
                            "--delta-grid", "0:0.1:0.05"]}[command]
    before = sorted(tmp_path.rglob("*"))
    for out, message in ((tmp_path / "missing" / "out.txt", "No such file or directory"),
                         (tmp_path / "dir", "Is a directory"),
                         (cfgp / "out.txt", "Not a directory")):
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before
    # a device that takes no bytes passes the check and fails at the write,
    # after the command has run
    if os.path.exists("/dev/full"):
        monkeypatch.undo()
        assert main(argv + ["--out", "/dev/full"]) == 1
        err = capsys.readouterr().err
        assert err.endswith("error: cannot write /dev/full: No space left on device\n"), err


def test_estimate_cost_is_linear_in_d(tmp_path, capsys):
    # 20 000 coordinates, each with its aligned set, and 20 rows: every
    # lookup of the design and of the header reads a map (on a 2-core
    # machine, 0.3 s; 33.9 s when each lookup rebuilt one or scanned the header)
    d, n = 20_000, 20
    z = np.random.default_rng(0).uniform(size=(n, d)).round(2)
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps({
        "design": {"d": d, "k": 1, "relevant": [1],
                   "aligned": {str(j): [1] for j in range(1, d + 1)}},
        "estimand": {"kind": "moment", "index": 1, "power": 1}}))
    data = tmp_path / "d.csv"
    np.savetxt(data, np.column_stack([np.ones(n), z]), fmt=["%d"] + ["%.2f"] * d,
               delimiter=",", comments="",
               header=",".join(["source"] + [f"z{j}" for j in range(1, d + 1)]))
    out = tmp_path / "r.json"
    start = time.perf_counter()
    rc = main(["estimate", "--config", str(cfgp), "--data", str(data), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert rc == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["estimate"] == pytest.approx(z[:, 0].mean(), rel=1e-12)
    assert elapsed < 5.0, elapsed


def test_many_source_labels_are_split_in_one_pass(tmp_path, capsys):
    # 200 000 rows, each with its own label, reach the k check at once (on a
    # 2-core machine, 0.4 s; 13.4 s when the rows were scanned once per label)
    n = 200_000
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps({"design": {"d": 1, "k": 1, "relevant": [1],
                                           "aligned": {"1": [1]}}}))
    data = tmp_path / "d.csv"
    data.write_text("z1,source\n" + "".join(f"0.5,s{i}\n" for i in range(n)))
    start = time.perf_counter()
    rc = main(["estimate", "--config", str(cfgp), "--data", str(data),
               "--out", str(tmp_path / "r.json")])
    elapsed = time.perf_counter() - start
    assert rc == 1
    assert capsys.readouterr().err == f"error: design is for d=1, k=1; data has d=1, k={n}\n"
    assert elapsed < 5.0, elapsed


def test_a_huge_design_d_builds_no_column_names(tmp_path, capsys):
    # a design must list an aligned set for every index, so a huge d with one
    # entry is refused when the config is parsed, before the CSV is read or
    # any of the z1..zd names is built
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps({"design": {"d": 10 ** 6, "k": 1, "relevant": [1],
                                           "aligned": {"1": [1]}}}))
    data = tmp_path / "d.csv"
    data.write_text("z1,z3,source\n0.5,0.1,1\n")
    tracemalloc.start()
    try:
        rc = main(["estimate", "--config", str(cfgp), "--data", str(data),
                   "--out", str(tmp_path / "r.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert capsys.readouterr().err == "error: config.design: aligned set A_2 is empty\n"
    assert peak < 5 * 2 ** 20, peak
