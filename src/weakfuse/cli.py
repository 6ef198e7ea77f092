"""Command-line front end: simulate / estimate / sensitivity / config-dump.

All diagnostics go to standard error; result data goes to files only. Exit
codes: 0 success, 1 user error (bad arguments, malformed config or data),
2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import io
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    EmptyFile,
    MissingColumn,
    NegativeDelta,
    NonNumericCell,
    ParseError,
    SemanticError,
    WeakfuseError,
)
from .estimator import (
    _LEVEL,
    EstimatorVariant,
    one_step_estimate,
    wald_interval,
)
from .gradients import EstimandSpec
from .model import Dataset, FusionDesign, validate_design
from .nuisance import NuisanceOptions
from .simulation import (
    ALIGNMENT_LEVELS,
    named_scenario,
    run_monte_carlo,
    study_design,
    summary_to_csv,
)
from .weights import WeightSpec, parse_term

_DEFAULT_VARIANTS = "target_only,naive_fusion,efficient_fusion"
_MAX_DELTAS = 100_000       # points in a sensitivity sweep


# ---------------------------------------------------------------- config ----

@dataclass
class RunConfig:
    design: FusionDesign
    estimand: EstimandSpec
    variant: EstimatorVariant
    options: NuisanceOptions
    level: float
    seed: int | None
    columns: dict
    raw: dict


def _expect_keys(obj: dict, allowed: set, path: str, why: str = "unknown key"):
    for key in obj:
        if key not in allowed:
            raise ParseError(f"{path}.{key}: {why}")


def _as_int(val, path: str) -> int:
    """A JSON integer, checked rather than coerced: a bool, a float or a
    string is rejected."""
    if isinstance(val, bool) or not isinstance(val, int):
        raise ParseError(f"{path}: expected an integer, got {val!r}")
    return val


def _given(obj: dict, key: str, default):
    """The value at `key`; only a missing key or null means the default, so
    any other value reaches the type check that names the key."""
    val = obj.get(key)
    return default if val is None else val


def _kwargs(obj: dict, allowed: set, path: str, ints=(), why: str = "unknown key") -> dict:
    """A config block as keyword arguments of its type: only `allowed` keys,
    those in `ints` checked as integers, a null left to the type's default."""
    _expect_keys(obj, allowed, path, why)
    out = {key: val for key, val in obj.items() if val is not None}
    for key in out.keys() & set(ints):
        _as_int(out[key], f"{path}.{key}")
    return out


def _as_int_list(val, path: str) -> list[int]:
    if not isinstance(val, list):
        raise ParseError(f"{path}: expected a list of integers")
    return [_as_int(v, f"{path}[{i}]") for i, v in enumerate(val)]


def parse_config_dict(cfg: dict) -> RunConfig:
    if not isinstance(cfg, dict):
        raise ParseError("config root must be an object")
    _expect_keys(cfg, {"design", "estimand", "variant", "options", "level",
                       "seed", "columns"}, "config")
    dsn = cfg.get("design")
    if not isinstance(dsn, dict):
        raise ParseError("config.design: required object")
    _expect_keys(dsn, {"d", "k", "relevant", "aligned", "weak", "weight_specs"},
                 "config.design")
    d = _as_int(dsn.get("d"), "config.design.d")
    k = _as_int(dsn.get("k"), "config.design.k")
    relevant = _as_int_list(dsn.get("relevant", []), "config.design.relevant")

    def _index_map(block, path):
        if not isinstance(block, dict):
            raise ParseError(f"{path}: expected an object keyed by index")
        out = {}
        for jtxt, sources in block.items():
            try:
                j = int(jtxt)
            except ValueError:
                raise ParseError(f"{path}.{jtxt}: index keys must be integers") from None
            out[j] = set(_as_int_list(sources, f"{path}.{jtxt}"))
        return out

    aligned = _index_map(_given(dsn, "aligned", {}), "config.design.aligned")
    weak = _index_map(_given(dsn, "weak", {}), "config.design.weak")

    specs = {}
    spec_block = _given(dsn, "weight_specs", {})
    if not isinstance(spec_block, dict):
        raise ParseError("config.design.weight_specs: expected an object")
    for key, body in spec_block.items():
        path = f"config.design.weight_specs.{key}"
        try:
            j, s = (int(part) for part in key.split(","))
        except ValueError:
            raise ParseError(f'{path}: keys look like "j,s" with integers j and s') from None
        if not isinstance(body, dict):
            raise ParseError(f"{path}: expected an object")
        _expect_keys(body, {"family", "terms", "threshold"}, path)
        texts = _given(body, "terms", [])
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise ParseError(f"{path}.terms: expected a list of strings")
        try:
            terms = tuple(parse_term(t, j) for t in texts)
        except WeakfuseError as exc:
            raise ParseError(f"{path}.terms: {exc}") from None
        try:
            specs[(j, s)] = WeightSpec(body.get("family"), j, terms, body.get("threshold"))
        except WeakfuseError as exc:
            raise ParseError(f"{path}.{exc}") from None     # the message names its field

    try:
        design = FusionDesign(d=d, k=k, relevant=tuple(relevant), aligned=aligned,
                              weak=weak, weight_specs=specs)
    except WeakfuseError as exc:
        raise SemanticError(f"config.design: {exc}") from None

    est = _given(cfg, "estimand", {})
    if not isinstance(est, dict):
        raise ParseError("config.estimand: expected an object")
    kind = _given(est, "kind", EstimandSpec.kind)
    reads = EstimandSpec._READS.get(kind, ()) if isinstance(kind, str) else ()
    est = _kwargs(est, {"kind", *reads}, "config.estimand", ("index", "power"),
                  f"not read by kind {kind!r}")
    try:
        estimand = EstimandSpec(**est)
    except WeakfuseError as exc:
        raise SemanticError(f"config.estimand: {exc}") from None

    var = _given(cfg, "variant", {})
    if not isinstance(var, (dict, str)):
        raise ParseError("config.variant: expected an object or string")
    if isinstance(var, dict):
        var = _kwargs(var, {"kind", "extra_terms"}, "config.variant", ("extra_terms",))
    try:
        variant = EstimatorVariant.parse(var) if isinstance(var, str) else EstimatorVariant(**var)
    except ValueError as exc:
        raise SemanticError(f"config.variant: {exc}") from None

    opt = _given(cfg, "options", {})
    if not isinstance(opt, dict):
        raise ParseError("config.options: expected an object")
    opt = _kwargs(opt, {"ratio_clip", "propensity_clip", "cross_fit"}, "config.options")
    try:
        options = NuisanceOptions(**opt)
    except WeakfuseError as exc:
        raise ParseError(f"config.options: {exc}") from None

    level = _given(cfg, "level", _LEVEL)
    if not isinstance(level, (int, float)) or not 0 < level < 1:
        raise ParseError("config.level: expected a number in (0, 1)")
    seed = cfg.get("seed")
    if seed is not None:
        seed = _as_int(seed, "config.seed")

    columns = _given(cfg, "columns", {})
    if not isinstance(columns, dict):
        raise ParseError("config.columns: expected an object")
    _expect_keys(columns, {"z", "source"}, "config.columns")

    return RunConfig(design=design, estimand=estimand, variant=variant,
                     options=options, level=float(level), seed=seed,
                     columns=columns, raw=cfg)


def _read_text(path: str, what: str) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark; a file
    that cannot be read or decoded raises ParseError naming it, and the line
    of the first byte that is not UTF-8."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from None
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # with a mark, the error indexes the bytes after it; the mark has no newline
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{what} {path}: line {line} is not UTF-8 text "
                         f"(byte 0x{exc.object[exc.start]:02x})") from None


def parse_config(path: str) -> RunConfig:
    """Load and validate a JSON run configuration."""
    text = _read_text(path, "config")
    if not text.strip():
        raise EmptyFile(f"config {path} is empty")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return parse_config_dict(cfg)


def default_config_dict() -> dict:
    """The canonical study configuration: `study_design()` with the default
    estimand, variant and options as JSON values (round-trips through
    parse_config). The study's weight models are all tilts, written as terms."""
    design = study_design()
    return json.loads(json.dumps({
        "design": {
            "d": design.d,
            "k": design.k,
            "relevant": list(design.relevant),
            "aligned": {str(j): sorted(s) for j, s in design.aligned},
            "weak": {str(j): sorted(s) for j, s in design.weak},
            "weight_specs": {f"{j},{s}": {"family": spec.family,
                                          "terms": [t.text() for t in spec.terms]}
                             for (j, s), spec in design.weight_specs},
        },
        "estimand": {"kind": EstimandSpec.kind},
        "variant": asdict(EstimatorVariant()),
        "options": asdict(NuisanceOptions()),
        "level": _LEVEL,
        "seed": None,
        "columns": _default_columns(design.d),
    }, default=list))


def _default_columns(d: int) -> dict:
    """The column mapping of a config without `columns`: z1..zd and source."""
    return {"z": [f"z{j}" for j in range(1, d + 1)], "source": "source"}


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]


# ------------------------------------------------------------------ data ----

def _column_index(path: str, header: list, n_body: int, zcols: list, scol) -> dict:
    """The position of every mapped column in the header row; a missing
    column or an empty body raises."""
    header = [h.strip() for h in header]
    first = {}
    for pos, name in enumerate(header):
        first.setdefault(name, pos)
    index = {}
    for col in itertools.chain(zcols, [scol]):
        if not isinstance(col, str) or col not in first:    # a name may be any JSON value
            raise MissingColumn(f"column {col!r} not in header {header}")
        index[col] = first[col]
    if not n_body:
        raise EmptyFile(f"{path} has a header but no data rows")
    return index


def _read_plain(path: str, text: str, zcols: list, scol):
    """The z columns and the raw source cells of text with no quote and no
    lone carriage return, parsed in one pass: `np.loadtxt` reads the z
    columns and a split the labels. None when the csv reader must decide:
    a blank line (loadtxt skips it; here it is an error), a line longer than
    the csv field limit, or a cell that loadtxt rejects (such as `1_0`,
    which `float` accepts)."""
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    if not lines:
        raise EmptyFile(f"{path} has no header row")
    body = lines[1:]
    index = _column_index(path, lines[0].split(",") if lines[0] else [], len(body),
                          zcols, scol)
    if "" in body:
        return None
    try:
        z = np.loadtxt(body, delimiter=",", comments=None, ndmin=2,
                       usecols=[index[col] for col in zcols])
    except ValueError:
        return None
    if z.shape[0] != len(body):
        return None
    si = index[scol]
    cells = (line.split(",", si + 1) for line in body)
    return z, [row[si] if si < len(row) else "" for row in cells]


def _read_csv(path: str, text: str, zcols: list, scol):
    """The z columns and the raw source cells of any text, through the csv
    reader; a cell that is not a number raises NonNumericCell naming the
    first such cell in row order, and a row the reader rejects (a cell over
    its field size limit) raises ParseError naming that row."""
    rows = []
    try:
        for row in csv.reader(io.StringIO(text, newline="")):
            rows.append(row)
    except csv.Error as exc:
        raise ParseError(f"data {path}: row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise EmptyFile(f"{path} has no header row")
    body = rows[1:]
    index = _column_index(path, rows[0], len(body), zcols, scol)
    z = np.empty((len(body), len(zcols)))
    try:
        for cidx, c in enumerate(index[col] for col in zcols):
            z[:, cidx] = [float(row[c]) for row in body]
    except (ValueError, IndexError):
        # rescan row by row, so the error names the first bad cell
        for i, row in enumerate(body):
            for cidx, col in enumerate(zcols):
                cell = row[index[col]] if index[col] < len(row) else ""
                try:
                    z[i, cidx] = float(cell)
                except ValueError:
                    raise NonNumericCell(i + 2, col, cell) from None
    si = index[scol]
    return z, [row[si] if si < len(row) else "" for row in body]


def ingest_csv(path: str, mapping: dict) -> tuple[Dataset, dict]:
    """Read a dataset from CSV using a column mapping.

    mapping: {"z": [column names for z1..zd in order], "source": column name}.
    Source labels are remapped to 1..k by sorted string order; the map is
    returned alongside the dataset so reports can echo it. A blank or
    missing label raises ParseError naming the row. Text with a quote or a
    lone carriage return, and plain text the one-pass parse cannot settle,
    goes through the csv reader; both give the same dataset or error.
    """
    zcols = mapping.get("z")
    scol = mapping.get("source")
    if not zcols or not isinstance(zcols, list) or not scol:
        raise ParseError('column mapping needs "z" (list) and "source" (name)')
    text = _read_text(path, "data")
    plain = '"' not in text and ("\r" not in text or text.count("\r") == text.count("\r\n"))
    parsed = _read_plain(path, text, zcols, scol) if plain else None
    z, cells = parsed or _read_csv(path, text, zcols, scol)
    raw_labels = [cell.strip() for cell in cells]
    if "" in raw_labels:
        raise ParseError(f"data {path}: row {raw_labels.index('') + 2}, column {scol!r}: "
                         f"blank source label")
    uniq = sorted(set(raw_labels))
    label_map = {lab: i + 1 for i, lab in enumerate(uniq)}
    source = np.array([label_map[lab] for lab in raw_labels], dtype=int)
    data = Dataset(z, source, k=len(uniq))
    return data, {lab: label_map[lab] for lab in uniq}


# ------------------------------------------------------------- commands -----

def _write_text(path: str, text: str):
    """Write text as UTF-8; a file that cannot be written raises a
    WeakfuseError naming it."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise WeakfuseError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_out(path: str):
    """Raise the error `_write_text` would raise for a path that is a
    directory or whose directory is missing, creating and truncating
    nothing, so that a command fails before it reads or runs anything."""
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        raise WeakfuseError(f"cannot write {path}: {exc.strerror or exc}") from None


def _parse_variants(text: str) -> list[EstimatorVariant]:
    out = [EstimatorVariant.parse(item) for item in text.split(",") if item.strip()]
    if not out:
        raise ValueError("no variants given")
    return out


def cmd_simulate(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    threads = min(args.threads, os.cpu_count() or 1)
    if threads < args.threads:
        print(f"note: --threads {args.threads} clamped to the {threads} available CPUs",
              file=sys.stderr)
    variants = _parse_variants(args.variants)
    scenario = named_scenario(args.scenario, covariate_shift=args.shift,
                              n_per_source=args.n, variants=variants)
    rows = run_monte_carlo([scenario], reps=args.reps, master_seed=args.seed,
                           threads=threads)
    _write_text(args.out, summary_to_csv(rows))
    print(f"wrote {len(rows)} summary rows to {args.out}", file=sys.stderr)
    return 0


def _load_run(args):
    cfg = parse_config(args.config)
    mapping = cfg.columns or _default_columns(cfg.design.d)
    data, label_map = ingest_csv(args.data, mapping)
    try:
        notes = validate_design(cfg.design, data)
    except WeakfuseError as exc:
        raise SemanticError(str(exc)) from None
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    return cfg, data, label_map


def cmd_estimate(args) -> int:
    cfg, data, label_map = _load_run(args)
    report = one_step_estimate(data, cfg.design, cfg.estimand, variant=cfg.variant,
                               options=cfg.options, level=cfg.level,
                               seed_value=cfg.seed)
    payload = report.to_json_dict()
    payload["source_map"] = label_map
    payload["config_hash"] = config_hash(cfg.raw)
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"estimate {report.estimate:.6g} (se {report.se:.3g}) -> {args.out}",
          file=sys.stderr)
    return 0


def _parse_grid(text: str) -> list[float]:
    """Points start, start + step, ... up to stop (with 1e-12 slack), each
    rounded to 12 decimals; at most _MAX_DELTAS of them."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError('delta grid looks like "start:stop:step"')
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("delta grid start, stop and step must be finite")
    if step <= 0:
        raise ValueError("delta grid step must be positive")
    span = (stop - start + 1e-12) / step
    if span >= _MAX_DELTAS:
        raise ValueError(f"delta grid has more than {_MAX_DELTAS} points")
    count = math.floor(span) + 1 if span >= 0 else 0
    return [round(start + i * step, 12) for i in range(count)]


def cmd_sensitivity(args) -> int:
    grid = _parse_grid(args.delta_grid)      # before any input is read
    if grid and grid[0] < 0:                 # the grid ascends from its first point
        raise NegativeDelta(f"sensitivity radius must be nonnegative, got {grid[0]}")
    cfg, data, label_map = _load_run(args)
    fused = one_step_estimate(data, cfg.design, cfg.estimand, variant=cfg.variant,
                              options=cfg.options, level=cfg.level,
                              seed_value=cfg.seed)
    target = one_step_estimate(data, cfg.design, cfg.estimand,
                               variant=EstimatorVariant("target_only"),
                               options=cfg.options, level=cfg.level,
                               seed_value=cfg.seed)
    t_lo, t_hi = wald_interval(target.estimate, target.se, cfg.level)
    lo0, hi0 = wald_interval(fused.estimate, fused.se, cfg.level)
    # each row is `sensitivity_interval` at its delta: the Wald interval
    # widened by delta on each side
    est_se = f"{fused.estimate!r},{fused.se!r}"
    t_width = repr(t_hi - t_lo)
    lines = ["delta,estimate,se,ci_lo,ci_hi,width,target_only_width"]
    for dlt in grid:
        lo, hi = lo0 - dlt, hi0 + dlt
        lines.append(f"{dlt!r},{est_se},{lo!r},{hi!r},{hi - lo!r},{t_width}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(grid)} sensitivity rows to {args.out}", file=sys.stderr)
    return 0


def cmd_config_dump(args) -> int:
    _write_text(args.out, json.dumps(default_config_dict(), indent=2, sort_keys=True) + "\n")
    print(f"wrote default config to {args.out}", file=sys.stderr)
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 on usage problems; those are user errors here
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="weakfuse",
                description="One-step fusion estimation across weakly aligned sources")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run the Monte Carlo study for one scenario")
    ps.add_argument("--scenario", required=True, choices=sorted(ALIGNMENT_LEVELS))
    ps.add_argument("--shift", default="none", choices=["none", "beta_shift"])
    ps.add_argument("--reps", type=int, default=300)
    ps.add_argument("--n", type=int, default=2000)
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--variants", default=_DEFAULT_VARIANTS)
    ps.add_argument("--threads", type=int, default=1)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_simulate)

    pe = sub.add_parser("estimate", help="one-step estimate on a CSV dataset")
    pe.add_argument("--config", required=True)
    pe.add_argument("--data", required=True)
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=cmd_estimate)

    pn = sub.add_parser("sensitivity", help="delta-band sensitivity sweep")
    pn.add_argument("--config", required=True)
    pn.add_argument("--data", required=True)
    pn.add_argument("--delta-grid", required=True, dest="delta_grid")
    pn.add_argument("--out", required=True)
    pn.set_defaults(func=cmd_sensitivity)

    pc = sub.add_parser("config-dump", help="write the default study config")
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=cmd_config_dump)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _check_out(args.out)
        return args.func(args)
    except (WeakfuseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
