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
* 66 a sweep grid larger than its hard cap, or a witness scan that leaves
      the float range, by index 1024 at the latest (a coefficient, cell
      count or norm outside the floats, or a level past 1022),
* 70 an internal error: an exception no handler maps to a code above, reported
      as one line naming its type; also an error writing stdout, such as a
      full disk.

A reader that closes stdout early (``| head``, ``| true``) changes no exit
code and adds nothing to stderr: the rest of the output is dropped, with
stdout buffered or not (``PYTHONUNBUFFERED``).

All output is deterministic: floats are printed via repr, JSON keys are
sorted, and no timestamps or machine identifiers appear.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import ctypes
import functools
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .csvio import write_header, write_rows
from .dyadic import (
    _SPACE_KEYS,
    format_space_params,
    load_csv,
    n_norm,
    parse_space_params,
)
from .embedding import (
    DEFAULT_J_MAX,
    DEFAULT_NU_MIN,
    FINEST_NU,
    VERDICT_MEMO_SIZE,
    EmbeddingQuery,
    decide,
    gap_key,
    pair_key,
)
from .errors import DomainError, FloatRangeError, InsufficientMomentsError, TableFormatError
from .wavelet import (
    analyze as wavelet_analyze,
    cascade_depth,
    check_prune,
    daubechies_system,
    function_norm_estimate,
    load_samples,
    min_vanishing_moments,
    write_bands,
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

try:  # glibc's malloc_trim(pad); elsewhere a no-op
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
except (OSError, AttributeError, TypeError):
    _malloc_trim = lambda pad: 0  # noqa: E731

#: Embedding questions whose record members one sweep keeps encoded, keyed
#: by (pair id, gap key) and the least recently used dropped first: as many
#: as decide's memo keeps.  A hit skips decide and the encoding; a seed-1..3
#: bench grid of 2880 points asks 300-1440 distinct questions.
_ENCODED_QUESTIONS = VERDICT_MEMO_SIZE

_OUTCOME_CODES = {
    "holds": EXIT_HOLDS,
    "fails": EXIT_FAILS,
    "undetermined": EXIT_UNDETERMINED,
}


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


_JSON = json.JSONEncoder(sort_keys=True)


def _emit_json(handle, record):
    handle.write(_JSON.encode(record) + "\n")


class _Stdout:
    """sys.stdout, as the commands write it.  Once the reader has closed it
    (a broken pipe), the rest of the output goes to os.devnull: the exit
    code stays the command's, and the interpreter's final flush raises
    nothing.  Any other write error is raised after the same switch, so it
    is reported once."""

    def write(self, text):
        self._guarded(sys.stdout.write, text)

    def writelines(self, lines):
        self._guarded(sys.stdout.writelines, lines)

    def flush(self):
        self._guarded(sys.stdout.flush)

    @staticmethod
    def _guarded(method, *args):
        try:
            method(*args)
        except OSError as exc:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if not isinstance(exc, BrokenPipeError):
                raise


_STDOUT = _Stdout()


# ---------------------------------------------------------------------------
# config and space blocks


def _load_config(path):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise _CliError(EXIT_CONFIG, "cannot read config %r: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise _CliError(EXIT_CONFIG, "bad config %r: not UTF-8 text (%s)" % (path, exc.reason))
    except configparser.Error as exc:  # some messages quote the line: one stderr line
        raise _CliError(EXIT_CONFIG, "bad config %r: %s" % (path, " ".join(str(exc).split())))
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


def _parse_space(block, label, d=None, phis=None):
    try:
        return parse_space_params(block, d=d, _phis=phis)
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
        yield _STDOUT
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
    """The verdict fields of a check --json record.  A sweep record has
    the same members, spliced as text by _verdict_members, which the tests
    check against this dict."""
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
    out = _STDOUT
    if args.json:
        _emit_json(out, {"command": "check", "version": __version__, "jmax": jmax, "numin": numin})
        record = _verdict_summary(verdict)
        record.update(
            cond0_detail=verdict.cond0.detail,
            cond2_detail=verdict.cond2.detail,
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
    _STDOUT.write("space=%s\n" % format_space_params(params))
    _STDOUT.write("entries=%d\n" % len(seq))
    _STDOUT.write("norm=%r\n" % value)
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
        # a witness or its norm outside the float range, or its level past 1022
        raise _CliError(EXIT_TOOBIG, "witness: %s; lower --depth" % exc)
    with _output(args.out) as handle:
        comments = [
            "besovmorrey witness",
            "source=%s" % format_space_params(query.source),
            "target=%s" % format_space_params(query.target),
            "family=%s outcome=fails" % scan.family,
            "depth=%d numin=%d" % (depth, numin),
        ]
        write_header(handle, comments, ["index", "ratio"])
        write_rows(handle, np.arange(len(scan.ratios)).reshape(-1, 1), np.array(scan.ratios))
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
        depth = cascade_depth(f, args.depth)
        check_prune(args.prune)
        if params is not None:
            # the estimate runs its own cascade before the output one, so the
            # two are never held together; a cascade error is still reported
            # before the estimate refuses too few moments
            try:
                estimate = function_norm_estimate(f, params, system=system)
            except InsufficientMomentsError:
                wavelet_analyze(f, system, depth=depth)
                raise
        coeffs = wavelet_analyze(f, system, depth=depth, prune=args.prune)
        bands = coeffs.bands()
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
        write_bands(handle, bands)
    del f, coeffs, bands  # and hand their heap back: the next call's peak is then its own
    _malloc_trim(0)
    if params is not None:
        _STDOUT.write("norm_estimate=%r\n" % estimate)
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
    # sorted keys put every source.* before every target.*, so the grid is
    # the source combinations times the target combinations
    sides = {"source": [], "target": []}
    for key, raw in sweep_items:
        prefix, _, fieldname = key.partition(".")
        values = [piece.strip() for piece in raw.split(";") if piece.strip()]
        if not values:
            raise _CliError(EXIT_CONFIG, "sweep key %r has no values" % key)
        if prefix not in base or fieldname not in _SPACE_KEYS:
            raise _CliError(
                EXIT_CONFIG,
                "sweep key %r is not source.<s|p|q|phi|d> or target.<...>" % key,
            )
        sides[prefix].append((key, fieldname, values))
    count = math.prod(len(values) for side in sides.values() for _, _, values in side)
    if count > MAX_SWEEP:
        raise _CliError(
            EXIT_TOOBIG,
            "sweep grid has %d combinations; the cap is %d" % (count, MAX_SWEEP),
        )

    # a sweep never repeats a source combination, so each source block is
    # parsed once.  The target blocks are parsed once per source dimension,
    # into that dimension's plan, which is filled whole before its first row,
    # and each distinct profile expression (and the table file it names) once
    # per dimension.  A row reads its pair ids, kept per source class, and
    # its gap keys, kept per signed source s; both are per dimension.  The
    # record members of a question are cached by (pair id, gap key), so
    # decide runs once per distinct question while the cache keeps it
    plans, phis, pair_ids, pair_rows, gap_rows = {}, {}, {}, {}, {}
    pair_keys = []
    members = functools.lru_cache(maxsize=_ENCODED_QUESTIONS)(
        lambda pid, gap: _verdict_members(decide(pair_keys[pid] + gap, j_max=jmax, nu_min=numin)))
    target_blocks, target_members = zip(*_side_blocks(base["target"], sides["target"]))
    index = 0
    with _output(args.out) as handle:
        _emit_json(handle, {"command": "sweep", "version": __version__, "count": count,
                            "keys": names, "jmax": jmax, "numin": numin})
        for source_block, source_members in _side_blocks(base["source"], sides["source"]):
            source = _sweep_space(source_block, "source", phis)
            failure = None
            if isinstance(source, tuple):
                points = [source] * len(target_blocks)
            else:
                plan = plans.setdefault(source.d, [])
                try:
                    for target_block in target_blocks[len(plan):]:
                        plan.append(_sweep_space(target_block, "target", phis, source))
                except _CliError as err:  # a bad data file: write the points before it
                    failure = err
                pair = source.phi, source.p, source.q, source.d
                if pair not in pair_rows:
                    pair_rows[pair] = [entry if isinstance(entry, tuple) else pair_ids.setdefault(
                        pair_key(source, entry), len(pair_ids)) for entry in plan]
                    pair_keys[:] = pair_ids
                signed = source.s, math.copysign(1.0, source.s), source.d
                if signed not in gap_rows:
                    gap_rows[signed] = [None if isinstance(entry, tuple)
                                        else gap_key(source.s, entry.s) for entry in plan]
                points = [pid if gap is None else members(pid, gap)
                          for pid, gap in zip(pair_rows[pair], gap_rows[signed])]
            # one write per source block, also when a bad data file ends the
            # sweep inside it
            handle.write("".join([
                f'{{{before}, "index": {at}, {after}{source_members}{members_of_target}}}\n'
                for at, (before, after), members_of_target
                in zip(itertools.count(index), points, target_members)]))
            index += len(target_blocks)
            if failure:
                raise failure
    return EXIT_HOLDS


def _side_blocks(items, side):
    """Per combination of one side's sweep values, in grid order: the space
    block with those values over the section's items, and the record's
    JSON members for them.  The side's keys are sorted and its values are
    strings, so joining the members encoded once per value gives the bytes
    _JSON.encode gives for the combination's dict."""
    fieldnames = [fieldname for _, fieldname, _ in side]
    encoded = [[f", {encode_basestring_ascii(key)}: {encode_basestring_ascii(value)}"
                for value in values] for key, _, values in side]
    for combo, members in zip(itertools.product(*(values for _, _, values in side)),
                              itertools.product(*encoded)):
        block = dict(items)
        block.update(zip(fieldnames, combo))
        yield _format_block(block), "".join(members)


def _json_float(x):
    return float.__repr__(x) if math.isfinite(x) else '"%s"' % _jsonable(x)


# A sweep record is spliced from the members that sort before its "index",
# the index, the members that sort after it and then the source and target
# members, which sort last since every sweep key starts with "source." or
# "target.".  The members are the ones _JSON.encode writes for
# _verdict_summary, or for {"outcome": "error", "error": message}.
def _verdict_members(verdict):
    enc, cond0, cond2 = encode_basestring_ascii, verdict.cond0, verdict.cond2
    return (f'"cond0_status": {enc(cond0.status)}, "cond0_value": {_json_float(cond0.value)}, '
            f'"cond2_status": {enc(cond2.status)}, "cond2_value": {_json_float(cond2.value)}',
            f'"method": {enc(verdict.method)}, "outcome": {enc(verdict.outcome)}, '
            f'"q_star": {_json_float(verdict.q_star)}, "rho": {_json_float(verdict.rho)}')


def _error_members(message):
    return '"error": %s' % encode_basestring_ascii(message), '"outcome": "error"'


def _sweep_space(block, label, phis, source=None):
    """A space block of the sweep grid, parsed, or the members of the error
    record every point with it gets.  A target takes the source's dimension
    and must pair with it.  A bad data file ends the sweep."""
    try:
        if source is None:
            return _parse_space(block, label, phis=phis)
        return _query(source, _parse_space(block, label, d=source.d, phis=phis)).target
    except _CliError as err:
        if err.code == EXIT_DATA:
            raise
        return _error_members(err.message)


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
        try:
            args = _build_parser().parse_args(argv)
            return globals()[args.handler](args)
        finally:  # a write error of the buffered output is reported here, once
            _STDOUT.flush()
    except _CliError as err:
        sys.stderr.write(err.message + "\n")
        return err.code
    except Exception as exc:  # the exit-code contract: one stderr line, no traceback
        words = " ".join(str(exc).split())
        sys.stderr.write("internal error: %s%s\n" % (type(exc).__name__, words and ": " + words))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
