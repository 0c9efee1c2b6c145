"""Command line front end.

Five subcommands: ``check`` decides an embedding between two sequence
spaces, ``norm`` evaluates the quasi-norm of a coefficient CSV, ``witness``
emits a divergence certificate for a failing embedding, ``analyze`` runs the
wavelet cascade over a sample grid, and ``sweep`` batches embedding
decisions over a parameter grid from a config file.

Exit codes are part of the interface:

* 0  success (for ``check``/``witness``: the embedding holds resp. the
      certificate was produced),
* 1  the decided outcome is negative (``check``: embedding fails;
      ``witness``: the embedding holds, so there is nothing to certify),
* 2  the numeric classifier could not settle the question,
* 64 malformed command line or config (including profile grammar errors,
      a profile with no positive float value at t = 1, a ``--numin``
      outside [-1074, 0] or a ``--jmax`` outside [0, 1074], an ``analyze``
      filter order above 30 or a filter too long for the grid),
* 65 a data file (coefficient CSV, sample CSV, knot table) that is not
      UTF-8, breaks the shared ``csvio`` grammar, leaves its bounds or has a
      norm or wavelet coefficient outside the float range; the one-line
      message starts ``<file>:``,
* 66 a request larger than a hard cap (a sweep grid, or a witness with more
      cells than ``witness.MAX_CELLS``, a coefficient that overflows or
      underflows to 0, or a norm outside the float range),
* 70 an internal error: an exception no handler maps to a code above, reported
      as one line naming its type.

All output is deterministic: floats are printed via repr, JSON keys are
sorted, and no timestamps or machine identifiers appear.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .csvio import write_header, write_rows
from .dyadic import (
    format_space_params,
    load_csv,
    n_norm,
    parse_space_params,
)
from .embedding import DEFAULT_J_MAX, DEFAULT_NU_MIN, FINEST_NU, EmbeddingQuery, decide
from .errors import DomainError, FloatRangeError, TableFormatError
from .wavelet import (
    analyze as wavelet_analyze,
    daubechies_system,
    function_norm_estimate,
    load_samples,
    min_vanishing_moments,
)
from .witness import DEFAULT_DEPTH, divergence_scan

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNDETERMINED = 2
EXIT_CONFIG = 64
EXIT_DATA = 65
EXIT_TOOBIG = 66
EXIT_INTERNAL = 70

MAX_SWEEP = 100_000

_OUTCOME_CODES = {
    "holds": EXIT_HOLDS,
    "fails": EXIT_FAILS,
    "undetermined": EXIT_UNDETERMINED,
}

_SPACE_KEYS = ("s", "p", "q", "phi", "d")


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(EXIT_CONFIG, "%s: %s" % (self.prog, message))


def _jsonable(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
    return x


def _emit_json(handle, record):
    handle.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# config and space blocks


def _load_config(path):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise _CliError(EXIT_CONFIG, "cannot read config %r: %s" % (path, exc))
    except configparser.Error as exc:
        raise _CliError(EXIT_CONFIG, "bad config %r: %s" % (path, exc))
    return parser


def _section_items(cfg, section):
    items = dict(cfg.items(section))
    unknown = sorted(set(items) - set(_SPACE_KEYS))
    if unknown:
        raise _CliError(EXIT_CONFIG, "unknown key(s) %s in [%s]" % (", ".join(unknown), section))
    return items


def _section_block(cfg, section):
    if cfg is None or not cfg.has_section(section):
        return None
    return _format_block(_section_items(cfg, section))


def _parse_space(block, label, d=None):
    try:
        return parse_space_params(block, d=d)
    except TableFormatError as exc:
        raise _CliError(EXIT_DATA, "%s space: %s" % (label, exc))
    except DomainError as exc:
        raise _CliError(EXIT_CONFIG, "%s space: %s" % (label, exc))


def _one_space(args, label):
    """The --space block, else the config's [source], parsed; None when
    there is neither."""
    cfg = _load_config(args.config) if args.config else None
    block = args.space or _section_block(cfg, "source")
    return _parse_space(block, label) if block else None


def _query(source, target):
    try:
        return EmbeddingQuery(source=source, target=target)
    except DomainError as exc:
        raise _CliError(EXIT_CONFIG, str(exc))


def _resolve_pair(args):
    cfg = _load_config(args.config) if args.config else None
    src_block = args.source or _section_block(cfg, "source")
    tgt_block = args.target or _section_block(cfg, "target")
    for label, block in (("source", src_block), ("target", tgt_block)):
        if not block:
            raise _CliError(
                EXIT_CONFIG, "no {0} space: pass --{0} or a config with [{0}]".format(label)
            )
    source = _parse_space(src_block, "source")
    return _query(source, _parse_space(tgt_block, "target", d=source.d)), cfg


def _run_int(args_value, cfg, key, fallback):
    if args_value is not None:
        return args_value
    if cfg is not None and cfg.has_section("run") and cfg.has_option("run", key):
        try:
            return cfg.getint("run", key)
        except ValueError:
            raise _CliError(EXIT_CONFIG, "[run] %s must be an integer" % key)
    return fallback


def _level_setting(args_value, cfg, key, fallback, lo, hi):
    """_run_int for a level of the sampled window, which must lie in [lo, hi]."""
    value = _run_int(args_value, cfg, key, fallback)
    if value < lo:
        raise _CliError(EXIT_CONFIG, "%s must be >= %d" % (key, lo))
    if value > hi:
        raise _CliError(EXIT_CONFIG, "%s must be <= %d" % (key, hi))
    return value


def _numin(args, cfg):
    """--numin or [run] numin: the coarsest cube level the diagnostics
    sample, from -FINEST_NU up to 0.  They hold one lattice value per
    level, so the lower bound also bounds their memory."""
    return _level_setting(args.numin, cfg, "numin", DEFAULT_NU_MIN, -FINEST_NU, 0)


def _window(args, cfg):
    """(jmax, numin), the sampled window of check and sweep; jmax, the
    finest level sampled, runs from 0 to FINEST_NU."""
    jmax = _level_setting(args.jmax, cfg, "jmax", DEFAULT_J_MAX, 0, FINEST_NU)
    return jmax, _numin(args, cfg)


def _read_data(load, path, what, params):
    """load(path): an unreadable or malformed file exits 65, and data whose
    dimension is not the space's (when one is given) exits 64."""
    try:
        data = load(path)
    except OSError as exc:
        raise _CliError(EXIT_DATA, "cannot read %r: %s" % (path, exc))
    except DomainError as exc:
        raise _CliError(EXIT_DATA, str(exc))
    if params is not None and data.d != params.d:
        raise _CliError(
            EXIT_CONFIG,
            "%s dimension %d does not match space dimension %d" % (what, data.d, params.d),
        )
    return data


@contextlib.contextmanager
def _output(path):
    """The --out file, closed on leaving; stdout for none or "-"."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _CliError(EXIT_CONFIG, "cannot write %r: %s" % (path, exc))
    with handle:
        yield handle


# ---------------------------------------------------------------------------
# check


def _conditions(verdict):
    return (("cond0", verdict.cond0), ("cond2", verdict.cond2))


def _verdict_summary(verdict):
    """The verdict fields that check --json and every sweep record share."""
    record = {
        "outcome": verdict.outcome,
        "method": verdict.method,
        "rho": _jsonable(verdict.rho),
        "q_star": _jsonable(verdict.q_star),
    }
    for name, cond in _conditions(verdict):
        record[name + "_status"] = cond.status
        record[name + "_value"] = _jsonable(cond.value)
    return record


def _cmd_check(args):
    query, cfg = _resolve_pair(args)
    jmax, numin = _window(args, cfg)
    verdict = decide(query, j_max=jmax, nu_min=numin)
    source, target = format_space_params(query.source), format_space_params(query.target)
    out = sys.stdout
    if args.json:
        _emit_json(out, {"command": "check", "version": __version__, "jmax": jmax, "numin": numin})
        record = _verdict_summary(verdict)
        record.update(
            cond0_detail=verdict.cond0.detail,
            cond2_detail=verdict.cond2.detail,
            never_compact=verdict.never_compact,
            constant=_jsonable(verdict.constant),
            notes=list(verdict.notes),
            source=source,
            target=target,
        )
        _emit_json(out, record)
    else:
        out.write("source=%s\ntarget=%s\n" % (source, target))
        out.write("outcome=%s\nmethod=%s\n" % (verdict.outcome, verdict.method))
        out.write("rho=%r\nq_star=%r\n" % (verdict.rho, verdict.q_star))
        for name, cond in _conditions(verdict):
            detail = " (%s)" % cond.detail if cond.detail else ""
            out.write("%s=%s value=%r%s\n" % (name, cond.status, cond.value, detail))
        if verdict.constant is not None:
            out.write("constant=%r\n" % verdict.constant)
        for note in verdict.notes:
            out.write("note=%s\n" % note)
    return _OUTCOME_CODES[verdict.outcome]


# ---------------------------------------------------------------------------
# norm


def _cmd_norm(args):
    params = _one_space(args, "norm")
    if params is None:
        raise _CliError(EXIT_CONFIG, "no space: pass --space or a config with [source]")
    seq = _read_data(load_csv, args.seq, "sequence", params)
    try:
        value = n_norm(seq, params)
    except DomainError as exc:
        raise _CliError(EXIT_DATA, "%s: %s" % (args.seq, exc))
    sys.stdout.write("space=%s\n" % format_space_params(params))
    sys.stdout.write("entries=%d\n" % len(seq))
    sys.stdout.write("norm=%r\n" % value)
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# witness


def _cmd_witness(args):
    query, cfg = _resolve_pair(args)
    numin = _numin(args, cfg)
    depth = _run_int(args.depth, cfg, "depth", DEFAULT_DEPTH)
    if depth < 0:
        raise _CliError(EXIT_CONFIG, "depth must be >= 0")
    verdict = decide(query, nu_min=numin)
    if verdict.outcome != "fails":
        sys.stderr.write(
            "the embedding verdict is %r; divergence witnesses exist only "
            "for failing pairs\n" % verdict.outcome
        )
        # success here means "certificate produced", so a holding pair is a miss
        return EXIT_FAILS if verdict.outcome == "holds" else EXIT_UNDETERMINED
    try:
        scan = divergence_scan(query, depth=depth, nu_min=numin)
    except DomainError as exc:
        # over MAX_CELLS, or a witness or its norm outside the float range
        raise _CliError(EXIT_TOOBIG, "witness: %s; lower --depth" % exc)
    with _output(args.out) as handle:
        comments = [
            "besovmorrey witness",
            "source=%s" % format_space_params(query.source),
            "target=%s" % format_space_params(query.target),
            "family=%s outcome=%s" % (scan.family, scan.outcome),
            "depth=%d numin=%d" % (depth, numin),
        ]
        write_header(handle, comments, ["index", "ratio"])
        write_rows(handle, np.array(scan.indices).reshape(-1, 1), np.array(scan.ratios))
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args):
    params = _one_space(args, "analyze")
    if args.moments is None and params is None:
        raise _CliError(EXIT_CONFIG, "pass --moments or a space (--space / config [source])")
    f = _read_data(load_samples, args.samples, "sample", params)
    try:
        moments = args.moments
        if moments is None:
            moments = min_vanishing_moments(params.s, params.p, params.d)
        system = daubechies_system(moments)
        depth = args.depth if args.depth is not None else f.js
        coeffs = wavelet_analyze(f, system, depth=depth, prune=args.prune)
        if params is not None:
            estimate = function_norm_estimate(f, params, system=system)
        details = sorted(coeffs.detail_sequences().items())
    except FloatRangeError as exc:
        raise _CliError(EXIT_DATA, "%s: %s" % (args.samples, exc))
    except DomainError as exc:
        raise _CliError(EXIT_CONFIG, str(exc))
    with _output(args.out) as handle:
        comments = [
            "besovmorrey analyze",
            "moments=%d depth=%d prune=%r" % (system.moments, depth, args.prune),
            "d=%d js=%d base_level=%d" % (f.d, f.js, coeffs.base_level),
            "detail rows carry the 2^(j d/2) rescaling; scaling rows are raw",
        ]
        coords = ["m_%d" % (r + 1) for r in range(f.d)]
        write_header(handle, comments, ["gender", "j", *coords, "value"])
        scale_off, scale_arr = coeffs.scaling
        nonzero = np.nonzero(scale_arr)
        level = np.full(len(nonzero[0]), coeffs.base_level)
        rows = np.column_stack([level] + [i + o for i, o in zip(nonzero, scale_off)])
        write_rows(handle, rows, scale_arr[nonzero], prefix="F" * f.d + ",")
        for gender, seq in details:
            j, m, values = seq.cells()
            write_rows(handle, np.column_stack((j, m)), values, prefix=gender + ",")
    if params is not None:
        sys.stdout.write("norm_estimate=%r\n" % estimate)
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(args):
    cfg = _load_config(args.config)
    if not cfg.has_section("sweep"):
        raise _CliError(EXIT_CONFIG, "config has no [sweep] section")
    base = {}
    for section in ("source", "target"):
        if not cfg.has_section(section):
            raise _CliError(EXIT_CONFIG, "config is missing the [%s] section" % section)
        base[section] = _section_items(cfg, section)
    jmax, numin = _window(args, cfg)

    sweep_items = sorted(cfg.items("sweep"))
    names = [key for key, _ in sweep_items]
    fields = [key.partition(".")[::2] for key in names]
    choices = []
    for (key, raw), (prefix, fieldname) in zip(sweep_items, fields):
        values = [piece.strip() for piece in raw.split(";") if piece.strip()]
        if not values:
            raise _CliError(EXIT_CONFIG, "sweep key %r has no values" % key)
        if prefix not in base or fieldname not in _SPACE_KEYS:
            raise _CliError(
                EXIT_CONFIG,
                "sweep key %r is not source.<s|p|q|phi|d> or target.<...>" % key,
            )
        choices.append(values)
    count = math.prod(len(values) for values in choices)
    if count > MAX_SWEEP:
        raise _CliError(
            EXIT_TOOBIG,
            "sweep grid has %d combinations; the cap is %d" % (count, MAX_SWEEP),
        )

    # grid points repeat blocks, so each distinct block (and the table file
    # it names) is parsed once per call
    parsed = {}
    with _output(args.out) as handle:
        _emit_json(handle, {"command": "sweep", "version": __version__, "count": count,
                            "keys": names, "jmax": jmax, "numin": numin})
        for index, combo in enumerate(itertools.product(*choices)):
            blocks = {prefix: dict(items) for prefix, items in base.items()}
            for (prefix, fieldname), value in zip(fields, combo):
                blocks[prefix][fieldname] = value
            record = dict(zip(names, combo), index=index)
            try:
                source = _parse_cached(parsed, _format_block(blocks["source"]), "source")
                target = _parse_cached(
                    parsed, _format_block(blocks["target"]), "target", d=source.d
                )
                record.update(_verdict_summary(
                    decide(_query(source, target), j_max=jmax, nu_min=numin)
                ))
            except _CliError as err:
                if err.code == EXIT_DATA:
                    raise
                record.update(outcome="error", error=err.message)
            _emit_json(handle, record)
    return EXIT_HOLDS


def _parse_cached(parsed, block, label, d=None):
    """_parse_space through the call's cache, keyed by everything the
    result depends on.  An error is kept as its message and raised again
    as a config error for every later point; a bad data file ends the
    sweep the first time."""
    key = (block, label, d)
    if key not in parsed:
        try:
            parsed[key] = _parse_space(block, label, d=d)
        except _CliError as err:
            parsed[key] = err.message
            raise
    if isinstance(parsed[key], str):
        raise _CliError(EXIT_CONFIG, parsed[key])
    return parsed[key]


def _format_block(mapping):
    return ",".join(
        "%s=%s" % (key, mapping[key]) for key in _SPACE_KEYS if key in mapping
    )


# ---------------------------------------------------------------------------
# parser


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The parser, built once per process.  Each subcommand names its
    handler, which main looks up in this module when the command runs."""
    parser = _Parser(
        prog="besovmorrey",
        description="quasi-norms, embedding decisions and witnesses for "
        "Besov-type spaces built on generalised Morrey spaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add_pair(p):
        p.add_argument("--source", help="inline block s=...,p=...,q=...,phi=...,d=...")
        p.add_argument("--target", help="inline block, same grammar as --source")
        p.add_argument("--config", help="INI file with [source]/[target]/[run]")

    check = sub.add_parser("check", help="decide whether source embeds into target")
    add_pair(check)
    check.add_argument("--jmax", type=int, help="levels probed by the classifier")
    check.add_argument("--numin", type=int, help="coarsest cube level probed")
    check.add_argument("--json", action="store_true", help="emit JSONL instead of text")
    check.set_defaults(handler="_cmd_check")

    norm = sub.add_parser("norm", help="quasi-norm of a coefficient CSV")
    norm.add_argument("--space", help="inline block s=...,p=...,q=...,phi=...,d=...")
    norm.add_argument("--config", help="INI file; [source] supplies the space")
    norm.add_argument("--seq", required=True, help="coefficient CSV file")
    norm.set_defaults(handler="_cmd_norm")

    witness = sub.add_parser("witness", help="divergence certificate for a failing embedding")
    add_pair(witness)
    witness.add_argument("--depth", type=int, help="largest witness index")
    witness.add_argument("--numin", type=int, help="coarsest cube level probed")
    witness.add_argument("--out", help="CSV output path (default: stdout)")
    witness.set_defaults(handler="_cmd_witness")

    analyze = sub.add_parser("analyze", help="wavelet cascade over a sample grid")
    analyze.add_argument("--samples", required=True, help="sample CSV file")
    analyze.add_argument("--space", help="space block; enables the quasi-norm estimate")
    analyze.add_argument("--config", help="INI file; [source] supplies the space")
    analyze.add_argument("--moments", type=int, help="filter order override")
    analyze.add_argument("--depth", type=int, help="cascade depth (default: full)")
    analyze.add_argument("--prune", type=float, default=0.0, help="relative pruning threshold")
    analyze.add_argument("--out", help="CSV output path (default: stdout)")
    analyze.set_defaults(handler="_cmd_analyze")

    sweep = sub.add_parser("sweep", help="batch embedding decisions over a parameter grid")
    sweep.add_argument("--config", required=True, help="INI file with [sweep]")
    sweep.add_argument("--jmax", type=int, help="levels probed by the classifier")
    sweep.add_argument("--numin", type=int, help="coarsest cube level probed")
    sweep.add_argument("--out", help="JSONL output path (default: stdout)")
    sweep.set_defaults(handler="_cmd_sweep")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return globals()[args.handler](args)
    except _CliError as err:
        sys.stderr.write(err.message + "\n")
        return err.code
    except BrokenPipeError:
        return EXIT_HOLDS
    except Exception as exc:  # the exit-code contract: one stderr line, no traceback
        words = " ".join(str(exc).split())
        sys.stderr.write("internal error: %s%s\n" % (type(exc).__name__, words and ": " + words))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
