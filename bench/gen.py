"""Seeded input generation for the four benchmark workloads.

Every generator writes its files into a work directory and returns a plan:
a list of calls plus the input properties a claim about the workload may
need to cite.  A call is a dict with

* ``name``  -- unique label, also the stem of its output file,
* ``argv``  -- the command line given to ``besovmorrey.cli.main``; file
  names are relative to the work directory, which is the child's cwd,
* ``out``   -- the file the call writes through ``--out`` (or None),
* ``work``  -- the work units one call performs (grid points, coefficient
  entries, witness cells or samples),
* ``check`` -- what the output checker needs to know about the input.

The same seed gives byte-identical files and the same plan.  Sizes are fixed
per workload and only the values vary with the seed, so the work per call
does not depend on the seed.
"""

from __future__ import annotations

import math
import random

import numpy as np

#: Workload sizes.  ``tiny`` keeps every workload under a second for the
#: self-test; ``full`` is what the benchmark measures.
SIZES = {
    "full": {
        "sweep_s": 4, "sweep_t": 3,
        "norm_d1": 1 << 17, "norm_d2": 1 << 16, "norm_levels": 17,
        "witness_depths": {"simple1": 16, "simple2": 9, "capacity1": 15,
                           "capacity2": 8, "beta1": 19, "beta2": 10},
        "analyze_js2": 9, "analyze_js1": 16, "analyze_moments_js": 14,
    },
    "tiny": {
        "sweep_s": 2, "sweep_t": 1,
        "norm_d1": 600, "norm_d2": 300, "norm_levels": 6,
        "witness_depths": {"simple1": 5, "simple2": 3, "capacity1": 5,
                           "capacity2": 3, "beta1": 7, "beta2": 5},
        "analyze_js2": 4, "analyze_js1": 7, "analyze_moments_js": 6,
    },
}


def _fmt(x):
    return repr(float(x))


# ---------------------------------------------------------------------------
# sweep_grid


def _table_rows(kind, args, d):
    """Knots t = 2^k, k in [-64, 64], of an analytic profile, exact at the
    knots the embedding scan samples."""
    rows = ["t,value"]
    for k in range(-64, 65):
        t = 2.0 ** k
        if kind == "power":
            v = t ** (d / args[0])
        elif kind == "capped":
            v = min(t ** (d / args[0]), 1.0)
        elif kind == "twopower":
            v = t ** (d / args[0]) if t <= 1.0 else t ** (d / args[1])
        else:
            raise ValueError(kind)
        rows.append("%s,%s" % (_fmt(t), _fmt(v)))
    return "\n".join(rows) + "\n"


def _phi_text(kind, args):
    return "%s(%s)" % (kind, ",".join(_fmt(a) for a in args))


def _sweep_grid(rng, d, size, workdir, stem):
    """One INI grid.  Both sides draw p from two values and every profile is
    admissible for both, so every grid point parses.  One source profile in
    five is a knot table of an analytic twin that is also on the grid."""
    p_src = sorted(rng.sample([0.5, 1.0, 1.5, 2.0], 2))
    p_tgt = sorted(rng.sample([0.5, 1.0, 2.0, 4.0], 2))
    umin = p_src[1]

    def u():
        return umin * rng.choice([1.0, 1.5, 2.0, 3.0])

    src_phis = [
        ("power", (umin,)),
        ("capped", (u(),)),
        ("twopower", (u(), u())),
        ("power", (u(),)),
    ]
    twin_index = rng.randrange(len(src_phis))
    twin_kind, twin_args = src_phis[twin_index]
    table_name = "%s_table.csv" % stem
    with open(workdir / table_name, "w", encoding="utf-8") as fh:
        fh.write(_table_rows(twin_kind, twin_args, d))
    src_texts = [_phi_text(k, a) for k, a in src_phis] + ["table(%s)" % table_name]

    vmin = p_tgt[1]

    def v():
        return vmin * rng.choice([1.0, 2.0])

    tgt_texts = [
        _phi_text("power", (vmin,)),
        _phi_text("floorone", (v(),)),
        _phi_text("cappedlog", (v(), round(rng.uniform(0.0, d / (2.0 * vmin)), 3))),
    ]

    def quarters(n):
        """n distinct multiples of 1/4 in [-1, 2]."""
        return [_fmt(x) for x in sorted(rng.sample([k / 4.0 for k in range(-4, 9)], n))]

    sweep = {
        "source.phi": src_texts,
        "source.s": quarters(size["sweep_s"]),
        "source.p": [_fmt(x) for x in p_src],
        "source.q": [_fmt(rng.choice([0.5, 1.0, 2.0])), "inf"],
        "target.phi": tgt_texts,
        "target.s": quarters(size["sweep_t"]),
        "target.p": [_fmt(x) for x in p_tgt],
        "target.q": [_fmt(rng.choice([1.0, 2.0, 4.0])), "inf"],
    }
    lines = [
        "[source]", "s = 0", "p = %s" % _fmt(p_src[0]), "q = 1", "phi = const(1)",
        "d = %d" % d,
        "[target]", "s = 0", "p = %s" % _fmt(p_tgt[0]), "q = 1", "phi = const(1)",
        "d = %d" % d,
        "[sweep]",
    ] + ["%s = %s" % (key, "; ".join(vals)) for key, vals in sweep.items()]
    cfg_name = "%s.ini" % stem
    with open(workdir / cfg_name, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    points = 1
    for vals in sweep.values():
        points *= len(vals)
    # distinct space blocks among the 2 * points parses
    distinct = 1
    for side in ("source", "target"):
        n = 1
        for key, vals in sweep.items():
            if key.startswith(side + "."):
                n *= len(set(vals))
        distinct += n
    distinct -= 1
    twin = {
        "table": "table(%s)" % table_name,
        "twin": _phi_text(twin_kind, twin_args),
    }
    call = {
        "name": stem,
        "argv": ["sweep", "--config", cfg_name, "--out", stem + ".jsonl"],
        "out": stem + ".jsonl",
        "work": points,
        "check": {"d": d, "points": points, "twin": twin, "keys": sorted(sweep)},
    }
    props = {
        "d": d,
        "points": points,
        "tabulated_source_share": 1.0 / len(src_texts),
        "distinct_block_share": distinct / (2.0 * points),
        "distinct_blocks": distinct,
    }
    return call, props


def gen_sweep_grid(seed, workdir, size):
    rng = random.Random(seed)
    calls, props = [], {}
    for d in (1, 2):
        call, p = _sweep_grid(rng, d, size, workdir, "sweep_d%d" % d)
        calls.append(call)
        props[call["name"]] = p
    return calls, props


# ---------------------------------------------------------------------------
# norm_files


def _level_counts(total, levels):
    weights = [1.3 ** j for j in range(levels)]
    scale = total / sum(weights)
    counts = [max(1, int(w * scale)) for w in weights]
    counts[-1] += total - sum(counts)
    return counts


def _norm_file(nprng, d, total, levels, path):
    """Distinct cells per level, scattered over all 2^d orthants."""
    counts = _level_counts(total, levels)
    rows = []
    for j, n in enumerate(counts):
        # a box wide enough that the cells stay sparse and need several
        # merge rounds before every orthant collapses
        half = max(4, int(math.ceil((4 * n) ** (1.0 / d))), 1 << min(j + 1, 20))
        flat = nprng.choice((2 * half) ** d, size=n, replace=False)
        coords = []
        for _ in range(d):
            coords.append(flat % (2 * half) - half)
            flat = flat // (2 * half)
        mags = np.exp(nprng.normal(0.0, 1.5, size=n))
        signs = nprng.choice([-1.0, 1.0], size=n)
        for idx in range(n):
            m = ",".join(str(int(c[idx])) for c in coords)
            rows.append("%d,%s,%r" % (j, m, float(signs[idx] * mags[idx])))
    header = ["# besovmorrey benchmark coefficients", "# d=%d" % d,
              "j," + ",".join("m_%d" % (r + 1) for r in range(d)) + ",value"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header + rows) + "\n")
    return counts


def gen_norm_files(seed, workdir, size):
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    calls, props = [], {}
    for d, total in ((1, size["norm_d1"]), (2, size["norm_d2"])):
        fname = "coeffs_d%d.csv" % d
        counts = _norm_file(nprng, d, total, size["norm_levels"], workdir / fname)
        props[fname] = {"d": d, "entries": total, "entries_per_level": counts}
        p_small = rng.choice([0.5, 0.75])
        spaces = [
            ("power", "s=%s,p=%s,q=%s,phi=power(%s),d=%d" % (
                _fmt(rng.uniform(-1, 1)), _fmt(p_small), _fmt(rng.choice([0.5, 1.0, 2.0])),
                _fmt(p_small * rng.choice([1.0, 2.0])), d)),
            ("capped", "s=%s,p=1.0,q=inf,phi=capped(%s),d=%d" % (
                _fmt(rng.uniform(-1, 1)), _fmt(rng.choice([1.0, 2.0, 4.0])), d)),
            ("twopower", "s=%s,p=2.0,q=%s,phi=twopower(%s,%s),d=%d" % (
                _fmt(rng.uniform(-1, 1)), _fmt(rng.choice([1.0, 2.0])),
                _fmt(rng.choice([2.0, 3.0])), _fmt(rng.choice([2.0, 4.0])), d)),
        ]
        for family, space in spaces:
            calls.append({
                "name": "norm_d%d_%s" % (d, family),
                "argv": ["norm", "--space", space, "--seq", fname],
                "out": None,
                "work": total,
                "check": {"seq": fname, "space": space},
            })
    return calls, props


# ---------------------------------------------------------------------------
# witness_scan


def gen_witness_scan(seed, workdir, size):
    """Failing pairs, one per witness family and dimension.

    * simple: no loss of integrability (rho = 1) and a target profile that
      outgrows the source on large cubes;
    * capacity: p1 < p2 with the same large-cube failure;
    * beta: the large-cube ratio is bounded but the cross-level sum
      diverges.  capped(4) into capped(2) keeps the selected coarse level at
      4/d, so the level-i witness is a block of 2^((i - 4/d) d) cells.

    The seed draws s, q and the simple family's exponent; none of them
    changes how many cells a witness has.
    """
    rng = random.Random(seed)
    depths = size["witness_depths"]

    def q():
        return rng.choice(["1", "2", "inf"])

    def s():
        return _fmt(rng.choice([-0.5, 0.0, 0.5, 1.0]))

    pairs = []
    for d in (1, 2):
        u = _fmt(rng.choice([2.0, 4.0]))
        pairs.append(("simple%d" % d, d,
                      "s=%s,p=2,q=%s,phi=capped(%s),d=%d" % (s(), q(), u, d),
                      "s=%s,p=2,q=%s,phi=power(%s),d=%d" % (s(), q(), u, d)))
        pairs.append(("capacity%d" % d, d,
                      "s=%s,p=1,q=%s,phi=capped(%s),d=%d"
                      % (s(), q(), _fmt(rng.choice([1.0, 2.0])), d),
                      "s=%s,p=2,q=%s,phi=power(%s),d=%d"
                      % (s(), q(), _fmt(rng.choice([2.0, 4.0])), d)))
        s1 = rng.choice([-0.5, 0.0, 0.5])
        gap = rng.choice([0.25, 0.5])
        pairs.append(("beta%d" % d, d,
                      "s=%s,p=2,q=%s,phi=capped(4),d=%d" % (_fmt(s1), q(), d),
                      "s=%s,p=2,q=%s,phi=capped(2),d=%d" % (_fmt(s1 + gap), q(), d)))
    calls = []
    for label, d, src, tgt in pairs:
        depth = depths[label]
        calls.append({
            "name": "witness_%s" % label,
            "argv": ["witness", "--source", src, "--target", tgt,
                     "--depth", str(depth), "--out", "witness_%s.csv" % label],
            "out": "witness_%s.csv" % label,
            "work": None,  # set by checks.witness_cells from the family's closed form
            "check": {"family": label.rstrip("12"), "source": src, "target": tgt,
                      "depth": depth},
        })
    return calls, {}


# ---------------------------------------------------------------------------
# analyze_grid


def _samples(nprng, d, js):
    """A few Gaussian bumps, a jump across a random hyperplane and a little
    noise."""
    n = 1 << js
    axes = np.meshgrid(*[(np.arange(n) + 0.5) / n for _ in range(d)], indexing="ij")
    f = np.zeros((n,) * d)
    for _ in range(4):
        centre = nprng.uniform(0.2, 0.8, size=d)
        width = nprng.uniform(0.05, 0.2)
        r2 = sum((x - c) ** 2 for x, c in zip(axes, centre))
        f += nprng.uniform(-1.0, 1.0) * np.exp(-r2 / (2.0 * width ** 2))
    normal = nprng.normal(size=d)
    f += 0.5 * (sum(x * w for x, w in zip(axes, normal)) > 0.5 * normal.sum())
    # measurement noise far above the 1e-11 pruning threshold keeps the
    # share of coefficients the norm estimate keeps near one for every seed
    f += nprng.normal(0.0, 1e-6, size=f.shape)
    return f * 2.0 ** (-js * d / 2.0)


def _write_samples(path, d, js, offset, values):
    lines = ["# besovmorrey benchmark samples", "# d=%d js=%d" % (d, js),
             ",".join("m_%d" % (r + 1) for r in range(d)) + ",value"]
    flat = values.ravel()
    idx = np.indices(values.shape).reshape(d, -1)
    for k in range(flat.size):
        cell = ",".join(str(offset[r] + int(idx[r, k])) for r in range(d))
        lines.append("%s,%r" % (cell, float(flat[k])))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def gen_analyze_grid(seed, workdir, size):
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    specs = [
        ("analyze_d2", 2, size["analyze_js2"], None,
         "s=%s,p=2,q=2,phi=power(%s),d=2" % (_fmt(rng.choice([0.25, 0.5])), _fmt(rng.choice([2.0, 4.0])))),
        ("analyze_d1", 1, size["analyze_js1"], None,
         "s=%s,p=1,q=inf,phi=capped(%s),d=1" % (_fmt(rng.choice([0.5, 1.0])), _fmt(rng.choice([1.0, 2.0])))),
        ("analyze_m4", 1, size["analyze_moments_js"], 4,
         "s=%s,p=2,q=1,phi=twopower(2,4),d=1" % _fmt(rng.choice([0.5, 1.0, 1.5]))),
    ]
    calls, props = [], {}
    for name, d, js, moments, space in specs:
        offset = tuple(rng.randrange(-8, 8) for _ in range(d))
        values = _samples(nprng, d, js)
        fname = "%s_samples.csv" % name
        _write_samples(workdir / fname, d, js, offset, values)
        argv = ["analyze", "--samples", fname, "--space", space, "--out", name + ".csv"]
        if moments is not None:
            argv += ["--moments", str(moments)]
        calls.append({
            "name": name,
            "argv": argv,
            "out": name + ".csv",
            "work": int(values.size),
            "check": {"samples": fname, "space": space, "moments": moments},
        })
        props[name] = {"d": d, "js": js, "samples": int(values.size)}
    return calls, props


GENERATORS = {
    "sweep_grid": gen_sweep_grid,
    "norm_files": gen_norm_files,
    "witness_scan": gen_witness_scan,
    "analyze_grid": gen_analyze_grid,
}
