"""Output checks, each by a route independent of the one the CLI took.

Every checker takes a call from the plan, the text of the file the call's
first repetition wrote through ``--out`` (None when it has none) and its
stdout, and returns ``(problems, props)``: a list of strings, empty when
the output is right, and the input properties the check measured on the
way.  The checkers import the library from the checkout under test.

* sweep: a tabulated source never contradicts its analytic twin, and each
  exact record agrees with every specialised decider that applies (AC08);
* norm: the printed norm matches ``n_norm_via_morrey`` to 1e-12 (AC01);
* witness: simple-family ratios match the closed form
  2^(j0 s2) phi2(2^-nu0) / phi1(2^-nu0) to 1e-9 (AC04), and capacity and
  beta ratios grow;
* analyze: the ``--out`` coefficients synthesise back to the samples
  (AC10).
"""

from __future__ import annotations

import json
import math

import numpy as np

from besovmorrey.dyadic import load_csv, n_norm_via_morrey, parse_space_params
from besovmorrey.embedding import (
    EmbeddingQuery,
    decide_from_besov,
    decide_into_besov,
    decide_same_phi,
    decide_under_IS,
)
from besovmorrey.errors import NotApplicableError
from besovmorrey.phi import eval_phi
from besovmorrey.wavelet import coefficients_from_entries, daubechies_system, synthesize
from besovmorrey.witness import select_witness_level

NORM_RTOL = 1e-12
WITNESS_RTOL = 1e-9
ROUND_TRIP_RTOL = 1e-10
#: The pruning threshold function_norm_estimate applies.
ESTIMATE_PRUNE = 1e-11
_CEIL_DUST = 1e-9
_OUTCOMES = ("holds", "fails", "undetermined")


class Checker:
    """Holds what several checks of one run share: parsed spaces and loaded
    coefficient files are reused across calls and repetitions."""

    def __init__(self, workdir):
        self.workdir = workdir
        self._spaces = {}
        self._seqs = {}

    def space(self, text):
        if text not in self._spaces:
            self._spaces[text] = parse_space_params(text)
        return self._spaces[text]

    def check(self, workload, call, out, stdout):
        return getattr(self, "check_" + workload)(call, out, stdout)

    # -- sweep_grid ---------------------------------------------------------

    def check_sweep_grid(self, call, text, stdout):
        info = call["check"]
        problems = []
        lines = text.splitlines()
        if not lines:
            return ["empty sweep output"], {}
        header = json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:]]
        if header.get("count") != info["points"] or len(records) != info["points"]:
            problems.append("sweep wrote %d of %d records" % (len(records), info["points"]))
        if [r.get("index") for r in records] != list(range(len(records))):
            problems.append("sweep record indices are not 0..n-1")
        errors = [r for r in records if r.get("outcome") == "error"]
        if errors:
            problems.append("%d error records, first: %s" % (len(errors), errors[0].get("error")))
        odd = [r for r in records if r.get("outcome") not in _OUTCOMES + ("error",)]
        if odd:
            problems.append("%d records with an unknown outcome" % len(odd))

        others = [k for k in info["keys"] if k != "source.phi"]
        twin_verdict = {}
        for r in records:
            if r.get("source.phi") == info["twin"]["twin"]:
                twin_verdict[tuple(r.get(k) for k in others)] = r.get("outcome")
        contradictions = 0
        for r in records:
            if r.get("source.phi") != info["twin"]["table"]:
                continue
            exact = twin_verdict.get(tuple(r.get(k) for k in others))
            if exact is None:
                problems.append("tabulated record %d has no analytic twin" % r.get("index"))
            elif r["outcome"] in ("holds", "fails") and r["outcome"] != exact:
                contradictions += 1
        if contradictions:
            problems.append(
                "%d tabulated verdicts contradict their analytic twin" % contradictions
            )

        checked = mismatches = 0
        first_mismatch = None
        for r in records:
            if r.get("method") != "profile":
                continue
            got = self._specialised_outcomes(r, info["d"])
            if got:
                checked += 1
            for name, outcome in got:
                if outcome != r["outcome"]:
                    mismatches += 1
                    if first_mismatch is None:
                        first_mismatch = (r["index"], name, outcome, r["outcome"])
        if mismatches:
            problems.append(
                "%d specialised-decider mismatches, first (index, decider, "
                "specialised, sweep): %r" % (mismatches, first_mismatch)
            )
        n = max(len(records), 1)
        props = {
            "sampled_share": sum(r.get("method") == "sampled" for r in records) / n,
            "specialised_checked_share": checked / n,
            "tabulated_contradictions": contradictions,
        }
        return problems, props

    def _specialised_outcomes(self, record, d):
        def block(side):
            return "s=%s,p=%s,q=%s,phi=%s,d=%d" % tuple(
                [record[side + "." + key] for key in ("s", "p", "q", "phi")] + [d]
            )

        src = self.space(block("source"))
        tgt = self.space(block("target"))
        query = EmbeddingQuery(source=src, target=tgt)
        out = []
        if src.phi == tgt.phi:
            out.append(("same-phi", decide_same_phi(query).outcome))
        if tgt.phi.kind == "power" and tgt.phi.u == tgt.p:
            out.append(("into-besov", decide_into_besov(src, tgt.s, tgt.p, tgt.q).outcome))
        if src.phi.kind == "power" and src.phi.u == src.p:
            out.append(("from-besov", decide_from_besov(src.s, src.p, src.q, tgt).outcome))
        try:
            out.append(("under-IS", decide_under_IS(query).outcome))
        except NotApplicableError:
            pass
        return out

    # -- norm_files ---------------------------------------------------------

    def check_norm_files(self, call, out, text):
        info = call["check"]
        fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        if "norm" not in fields or "entries" not in fields:
            return ["norm output lacks norm= or entries="], {}
        if info["seq"] not in self._seqs:
            self._seqs[info["seq"]] = load_csv(str(self.workdir / info["seq"]))
        seq = self._seqs[info["seq"]]
        problems = []
        if int(fields["entries"]) != len(seq) or len(seq) != call["work"]:
            problems.append("entries=%s, file has %d" % (fields["entries"], len(seq)))
        got = float(fields["norm"])
        want = n_norm_via_morrey(seq, self.space(info["space"]))
        dev = abs(got - want) / max(abs(got), abs(want), 1e-300)
        if not dev <= NORM_RTOL:
            problems.append("norm %r vs Morrey route %r (rel dev %.3g)" % (got, want, dev))
        return problems, {"morrey_rel_dev": dev}

    # -- witness_scan -------------------------------------------------------

    def witness_cells(self, call):
        """Cells of every witness the scan builds, from each family's closed
        form."""
        info = call["check"]
        src, tgt = self.space(info["source"]), self.space(info["target"])
        d, family = src.d, info["family"]
        total = 0
        for i in range(info["depth"] + 1):
            if family == "simple":
                total += 1 << (i * d)
            elif family == "capacity":
                raw = 2.0 ** (i * d) * eval_phi(src.phi, 2.0 ** i) ** (-src.p)
                total += max(1, math.ceil(raw - _CEIL_DUST))
            else:
                query = EmbeddingQuery(source=src, target=tgt)
                if query.rho != 1.0:
                    raise ValueError("beta cell count assumes rho = 1")
                total += 1 << ((i - select_witness_level(query, i)) * d)
        return total

    def check_witness_scan(self, call, text, stdout):
        info = call["check"]
        lines = text.splitlines()
        meta = {}
        for line in lines:
            if line.startswith("#"):
                for token in line[1:].split():
                    if "=" in token:
                        key, _, val = token.partition("=")
                        meta[key] = val
        rows = [line.split(",") for line in lines if line and not line.startswith("#")]
        if not rows or rows[0] != ["index", "ratio"]:
            return ["witness output lacks the index,ratio header"], {}
        try:
            indices = [int(a) for a, _ in rows[1:]]
            ratios = [float(b) for _, b in rows[1:]]
        except ValueError:
            return ["witness output has a malformed row"], {}
        problems = []
        if meta.get("family") != info["family"]:
            problems.append("family %r, expected %r" % (meta.get("family"), info["family"]))
        if indices != list(range(info["depth"] + 1)):
            problems.append("witness indices are not 0..%d" % info["depth"])
        if not all(math.isfinite(r) and r > 0.0 for r in ratios):
            problems.append("non-finite or non-positive witness ratio")
            return problems, {}
        if info["family"] == "simple":
            src, tgt = self.space(info["source"]), self.space(info["target"])
            worst = 0.0
            for i, r in zip(indices, ratios):
                # j0 = 0, nu0 = -i
                t0 = 2.0 ** i
                want = eval_phi(tgt.phi, t0) / eval_phi(src.phi, t0)
                worst = max(worst, abs(r - want) / want)
            if not worst <= WITNESS_RTOL:
                problems.append("simple ratios off the closed form by %.3g" % worst)
        else:
            half = len(ratios) // 2
            if not (ratios[-1] > ratios[0] and max(ratios[half:]) > max(ratios[: max(half, 1)])):
                problems.append("%s ratios do not grow: %r" % (info["family"], ratios))
        return problems, {}

    # -- analyze_grid -------------------------------------------------------

    def _read_samples(self, name):
        cells, values = [], []
        header_seen = False
        with open(self.workdir / name, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                if not header_seen:
                    header_seen = True
                    continue
                parts = line.split(",")
                cells.append([int(c) for c in parts[:-1]])
                values.append(float(parts[-1]))
        return np.array(cells), np.array(values)

    def check_analyze_grid(self, call, text, stdout):
        info = call["check"]
        meta = {}
        scaling, details = {}, {}
        lines = text.splitlines()
        for line in lines:
            if line.startswith("#"):
                for token in line[1:].split():
                    key, sep, val = token.partition("=")
                    if sep:
                        meta[key] = val
        body = [line for line in lines if line and not line.startswith("#")]
        if not body or not body[0].startswith("gender,j,"):
            return ["analyze output lacks its column header"], {}
        d, js = int(meta["d"]), int(meta["js"])
        moments = int(meta["moments"])
        if int(meta["base_level"]) != 0:
            return ["analyze did not cascade to level 0"], {}
        lowpass = "F" * d
        for line in body[1:]:
            parts = line.split(",")
            gender, j = parts[0], int(parts[1])
            m = tuple(int(c) for c in parts[2:-1])
            val = float(parts[-1])
            if gender == lowpass:
                scaling[m] = val
            else:
                details.setdefault(gender, {})[(j, m)] = val
        coeffs = coefficients_from_entries(d, js, scaling, details)
        back = synthesize(coeffs, daubechies_system(moments))
        cells, values = self._read_samples(info["samples"])
        lo = cells.min(axis=0)
        want = np.zeros(tuple(cells.max(axis=0) - lo + 1))
        want[tuple((cells - lo).T)] = values
        got = np.zeros_like(want)
        start = np.array(back.offset) - lo
        # the synthesised hull is the sample box plus filter spill on each side
        src = tuple(slice(max(0, -s), max(0, -s) + n) for s, n in zip(start, want.shape))
        problems = []
        try:
            got[...] = back.values[src]
        except ValueError:
            return ["synthesised hull does not cover the sample box"], {}
        outside = back.values.copy()
        outside[src] = 0.0
        scale = float(np.max(np.abs(values)))
        dev = max(float(np.max(np.abs(got - want))), float(np.max(np.abs(outside))))
        if not dev <= ROUND_TRIP_RTOL * scale:
            problems.append("round trip off by %.3g (scale %.3g)" % (dev, scale))
        if info["moments"] is not None and moments != info["moments"]:
            problems.append("cascade used %d moments, asked for %d" % (moments, info["moments"]))
        estimate = [line for line in stdout.splitlines() if line.startswith("norm_estimate=")]
        if len(estimate) != 1 or not float(estimate[0].split("=", 1)[1]) > 0.0:
            problems.append("analyze printed no positive norm_estimate")
        raw = [np.asarray(coeffs.scaling[1])] + [
            np.asarray(a) for per in coeffs.details.values() for _, a in per.values()
        ]
        peak = max(float(np.max(np.abs(a))) for a in raw)
        total = sum(a.size for a in raw)
        kept = sum(int(np.count_nonzero(np.abs(a) >= ESTIMATE_PRUNE * peak)) for a in raw)
        return problems, {"coefficients": total, "kept_share_after_pruning": kept / total,
                          "round_trip_dev": dev / scale}
