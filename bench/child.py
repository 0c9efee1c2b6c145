"""One workload in a fresh interpreter: set-up, a closed loop of CLI calls,
and the process's peak RSS.

Run by run.py as ``python3 child.py PLAN RESULT`` with the work directory as
cwd and the checkout's ``src`` first on PYTHONPATH.  Nothing from the
package or numpy is imported before the set-up clock starts.

One caller runs the calls in a closed loop: each call of
``besovmorrey.cli.main`` starts when the previous one has returned.  The
loop cycles through the plan's calls and starts a call only while the call's
last duration still fits in the run's seconds, so every call runs at least
once and the run stops near its end.  A traced run alternates whole passes
untraced and traced until the run's seconds are up; the difference between
the two medians is the tracing overhead.

Outputs are not checked here: the first repetition of each call keeps its
``--out`` file and stdout for run.py to check after this process has
exited, and later repetitions keep only a digest, so the peak RSS is the
program's and not the checkers'.
"""

import contextlib
import hashlib
import io
import json
import os
import signal
import statistics
import sys
import time
import traceback

#: Nominal duration of one probe: normalised times are wall times rescaled
#: to a host on which _probe() takes this long.
PROBE_S = 0.00024
PROBE_INTERVAL_S = 0.02
PROBES_AROUND = 5


def _probe():
    """Time a fixed piece of integer arithmetic.  It allocates nothing the
    garbage collector tracks, so running it inside a call does not move the
    program's collections."""
    start = time.perf_counter()
    x = 1
    for i in range(1500):
        x = (x * 1103515245 + i) & 0x7FFFFFFF
    return time.perf_counter() - start


class HostSpeed:
    """Times an interval and normalises it by the speed of this CPU during
    the interval.

    The host this benchmark was defined on alternates between a fast state
    and states up to 1.6x slower, for stretches from under a second to tens
    of seconds, and a process's CPU time grows with the slowdown just as its
    wall time does.  A SIGALRM every PROBE_INTERVAL_S runs _probe() in this
    process, on this CPU, and PROBES_AROUND more probes run just before and
    after the interval.  The normalised time of the interval is its wall
    time less the probes' own time, times PROBE_S over the probes' mean.
    The probes cost about 1.2% of the interval; the handler leaves the
    program's state alone.
    """

    def __init__(self):
        self.active = False
        self.inside = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if self.active:
            self.inside.append(_probe())

    @contextlib.contextmanager
    def measure(self):
        """Yields a dict that holds ``wall_s`` and ``norm_s`` on exit."""
        around = [_probe() for _ in range(PROBES_AROUND)]
        self.inside = []
        out = {}
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            yield out
        finally:
            elapsed = time.perf_counter() - start
            self.active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            inside = list(self.inside)
            around += [_probe() for _ in range(PROBES_AROUND)]
            wall = elapsed - sum(inside)
            out["wall_s"] = wall
            out["norm_s"] = wall * PROBE_S / statistics.mean(around + inside)


def _setup(plan, speed):
    """Set-up time from before ``import besovmorrey`` to ready for the first
    call, with the filter taps the workload needs built."""
    with speed.measure() as timing:
        import besovmorrey.cli
        import besovmorrey.wavelet

        for order in plan["orders"]:
            besovmorrey.wavelet.daubechies_system(order)
    where = os.path.realpath(besovmorrey.__file__)
    if not where.startswith(os.path.realpath(plan["src"]) + os.sep):
        raise SystemExit("besovmorrey was imported from %s, not the checkout" % where)
    return timing


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _peak_rss_mb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Loop:
    def __init__(self, calls, speed=None):
        import besovmorrey.cli

        self.cli = besovmorrey.cli
        self.calls = calls
        self.speed = speed
        self.stats = {c["name"]: {"times": [], "norm_times": [], "codes": [],
                                  "errors": [], "digests": []} for c in calls}

    def _call(self, argv, out, err):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return self.cli.main(argv)

    def run(self, call):
        """One call; returns its wall time."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        timing = {}
        start = time.perf_counter()
        try:
            if self.speed is None:
                code = self._call(call["argv"], out, err)
            else:
                with self.speed.measure() as timing:
                    code = self._call(call["argv"], out, err)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the CLI must not raise: record it as a failure
            code = None
            error = traceback.format_exc()
        elapsed = timing.get("wall_s", time.perf_counter() - start)
        st = self.stats[call["name"]]
        stdout = out.getvalue().encode()
        written = b""
        if call["out"] and os.path.exists(call["out"]):
            with open(call["out"], "rb") as fh:
                written = fh.read()
        if not st["times"]:
            with open(call["name"] + ".stdout", "wb") as fh:
                fh.write(stdout)
            if call["out"] and os.path.exists(call["out"]):
                os.replace(call["out"], call["name"] + ".first")
        elif call["out"] and os.path.exists(call["out"]):
            os.remove(call["out"])
        if error is None and "Traceback" in err.getvalue():
            error = err.getvalue()
        st["times"].append(elapsed)
        st["norm_times"].append(timing.get("norm_s", elapsed))
        st["codes"].append(code)
        st["digests"].append(_digest(stdout) + _digest(written))
        st["errors"].append(None if error is None else error[-2000:])
        return elapsed

    def closed_loop(self, seconds):
        start = time.perf_counter()
        last = {}
        while True:
            ran = False
            for call in self.calls:
                name = call["name"]
                if name in last and time.perf_counter() - start + last[name] > seconds:
                    continue
                last[name] = self.run(call)
                ran = True
            if not ran:
                return time.perf_counter() - start

    def one_pass(self):
        """Every call once; returns the pass's wall time."""
        start = time.perf_counter()
        for call in self.calls:
            self.run(call)
        return time.perf_counter() - start


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    speed = HostSpeed()
    timing = _setup(plan, speed)
    result = {"setup_raw_s": timing["wall_s"], "setup_s": timing["norm_s"]}
    if plan["mode"] == "measure" and not plan["trace"]:
        loop = Loop(plan["calls"], speed)
        result["loop_s"] = loop.closed_loop(plan["seconds"])
        result["peak_rss_mb"] = _peak_rss_mb()
        result["calls"] = loop.stats
    elif plan["mode"] == "measure":
        # no probes here: they would land inside the spans
        import tracer
        from besovmorrey.witness import MAX_CELLS

        loop = Loop(plan["calls"])
        trace = tracer.Tracer()
        untraced, traced = [], []
        trace_origin = time.perf_counter()
        # alternate untraced and traced passes so that a slow stretch of the
        # host lands on both sides of the overhead
        while not traced or time.perf_counter() - trace_origin < plan["seconds"]:
            untraced.append(loop.one_pass())
            trace.install()
            try:
                traced.append(loop.one_pass())
            finally:
                trace.uninstall()
        trace.write_spans(plan["spans"], trace_origin)
        result.update(
            untraced_pass_s=untraced, traced_pass_s=traced,
            layers=trace.metrics(len(traced), MAX_CELLS),
            zero_calls=trace.zero_calls(plan["workload"]),
            spans_kept=len(trace.spans), spans_dropped=trace.dropped,
            calls=loop.stats,
        )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
