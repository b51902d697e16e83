"""The three ccdp benchmark workloads.

Each workload makes its inputs from the benchmark seed, runs whole
iterations through ccdp's public entry points (``cli.main`` and the public
``bounds`` functions), times every operation, and checks every output with
``checks``.  ccdp receives only the generated inputs.

* ``grid-commands``: sweep, certify Th3..Th6 and audit over the standard grid
  through ``cli.main``.  No randomness: the standard grid is the real input.
* ``point-queries``: a seeded stream of single points through
  ``ChannelParams`` and the certification bound pair ``run_sweep`` picks.
* ``mc-verify``: ``ccdp simulate`` at n = 1e6 on the six canonical points of
  acceptance criterion 8 and the four decomposition points of criterion 9,
  with Philox seeds drawn from the benchmark seed.
"""

import contextlib
import gc
import hashlib
import math
import os
import random
import signal
from array import array
from statistics import median
from time import perf_counter, process_time

import numpy as np

from ccdp import bounds, cli, gaps, mc, model
from ccdp.errors import InfeasibleRho, InvalidGain, InvalidM, InvalidPower

import checks
from tracer import Tracer

MODULES = {"model": model, "bounds": bounds, "gaps": gaps, "mc": mc, "cli": cli}


def interpreter_kernel():
    """Integer arithmetic in the interpreter."""
    total = 0
    for i in range(2_000):
        total += i * i
    return total


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def numeric_kernel():
    """Scalar float math on small objects, like ccdp's per-point code."""
    total = 0.0
    for i in range(400):
        p = _Point(i * 0.5 + 1.0, 2.0)
        total += math.log2(p.a * p.b + 1.0)
    return total


# Each kernel's time at full speed on the baseline machine.
NOMINAL_S = {interpreter_kernel: 125e-6, numeric_kernel: 140e-6}


class Pace:
    """The machine's pace during each operation, for rescaling its time.

    On a shared host the speed of this code swings by up to 2x, in phases
    from a second to minutes long, so a whole run can fall in a slow or a
    fast phase and no statistic over its own times undoes that.  The runs
    therefore time a fixed reference kernel, part of the benchmark and
    untouched by ccdp, while they work: ``probe`` times it once, and inside
    ``sampling()`` an interval timer interrupts the running operation every
    ``INTERVAL_S`` seconds to time it.  An operation's time, less the probes
    that ran inside it, is rescaled by the kernel's ``NOMINAL_S`` over the
    median probe time from the last probe before it to the first after it,
    a window widened to at least ``WINDOW`` probes: it reads as its time at
    the pace at which the kernel takes its nominal time.  Probes are timed
    in the process's CPU time, which leaves out the stretches the host
    takes the CPU away (reported as steal); a median, because the host now
    and then stalls the process in the middle of one anyway.  A change to
    ccdp moves the operations, not the probes.

    Each workload names the kernel that slows down as its own code does
    when the host is busy: ``numeric_kernel`` for the per-point bound code,
    ``interpreter_kernel`` for the Monte Carlo code, which spends much of
    its time in numpy and slows down less.
    """

    INTERVAL_S = 0.02
    WINDOW = 9

    def __init__(self, kernel):
        self.kernel = kernel
        self.nominal_s = NOMINAL_S[kernel]
        self.times = array("d")
        self.spent = 0.0
        self.probe()

    def probe(self, signum=None, frame=None):
        """Time the kernel once (also the interval timer's handler)."""
        collecting = gc.isenabled()
        gc.disable()  # a collection of ccdp's garbage is not the kernel's
        start = process_time()
        self.kernel()
        elapsed = process_time() - start
        if collecting:
            gc.enable()
        self.times.append(elapsed)
        self.spent += elapsed

    @contextlib.contextmanager
    def sampling(self):
        """Probe every ``INTERVAL_S`` seconds, in the middle of operations."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self):
        """Where the probes stand; take one before and one after an op."""
        return len(self.times), self.spent

    def scale(self, elapsed, before, after):
        """``elapsed`` at the nominal pace, once a probe follows ``after``."""
        (first, spent0), (last, spent1) = before, after
        pad = max(0, self.WINDOW - (last + 2 - first) + 1) // 2
        window = self.times[max(first - 1 - pad, 0):last + 1 + pad]
        return (elapsed - (spent1 - spent0)) * self.nominal_s / median(window)

    def stats(self):
        return {"kernel": self.kernel.__name__, "probes": len(self.times),
                "nominal_s": self.nominal_s,
                "interval_s": self.INTERVAL_S,
                "median_s": median(self.times),
                "min_s": min(self.times), "max_s": max(self.times)}


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)


def _percentile(values, q):
    """Nearest-rank percentile."""
    return float(np.percentile(np.asarray(values), q, method="inverted_cdf"))


class CommandWorkload:
    """A fixed list of ``cli.main`` commands, run once per iteration.

    Subclasses list ``commands`` as (label, argv without --out, work units).
    A call is one iteration, i.e. one pass over the list: its latency
    percentiles are over the run's iterations.  Throughput is the work of
    one pass over the sum of each command's median time in the run, so a
    slow neighbour on the machine during one command moves it little.

    Each command is timed in wall time and in the process's CPU time.  The
    metrics are its CPU time rescaled to the nominal pace (see ``Pace``),
    probed every ``Pace.INTERVAL_S`` seconds in the middle of the commands:
    on a host that takes the CPU away for up to a second at a time, CPU
    time is what repeats, and with one thread and no waiting in ccdp it
    is the wall time the command takes when the host lets it run.  Without
    ``pace`` the metrics are the plain wall times.
    """

    min_iterations = 1
    sampled = True             # probe the pace in the middle of commands
    reference = staticmethod(numeric_kernel)
    commands = ()

    def __init__(self, seed, tmpdir):
        self.tmpdir = tmpdir
        self.tally = Tally()
        self.timed = []            # passes of (label, wall s, cpu s, marks)
        self.scheme_z = []

    def run_command(self, label, pace=None):
        """Run one command and check its output.

        Returns its wall and CPU time and the ``pace`` marks just before
        and after it (None without ``pace``).
        """
        argv, _ = self._command(label)
        out = os.path.join(self.tmpdir, f"{label}.out")
        argv = argv + ["--out", out]
        before = pace.mark() if pace else None
        start, cpu = perf_counter(), process_time()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an op that crashes is a failed op
            code, problem = None, f"{label}: {type(exc).__name__}: {exc}"
        elapsed, cpu = perf_counter() - start, process_time() - cpu
        after = pace.mark() if pace else None
        if code is not None:
            try:
                with open(out, "rb") as fh:
                    data = fh.read()
                problem = self.check(label, data, code)
            except OSError as exc:
                problem = f"{label}: output unreadable ({exc})"
        self.tally.record(problem)
        return elapsed, cpu, before, after

    def _command(self, label):
        for name, argv, units in self.commands:
            if name == label:
                return list(argv), units
        raise KeyError(label)

    def iteration(self, pace):
        """Run every command once."""
        self.timed.append([(label, *self.run_command(label, pace))
                           for label, _, _ in self.commands])

    def trace_pass(self):
        return sum(self.run_command(label)[0] for label, _, _ in self.commands)

    def summary(self, pace=None):
        """Metrics of the run, rescaled by ``pace`` or in plain wall time."""
        durations = {label: [] for label, _, _ in self.commands}
        passes = []
        for timed in self.timed:
            for label, elapsed, cpu, before, after in timed:
                durations[label].append(
                    pace.scale(cpu, before, after) if pace else elapsed)
            passes.append(sum(durations[label][-1] for label, *_ in timed))
        per_iteration = sum(units for _, _, units in self.commands)
        typical = sum(median(times) for times in durations.values())
        return {
            "throughput_per_s": per_iteration / typical,
            "call_us_p50": median(passes) * 1e6,
            "call_us_p99": _percentile(passes, 99) * 1e6,
        }


# The standard grid: M = 2..8, 13 feasible rho per M, 50 P x 50 c2 values.
# The audit evaluates 475,000 (family, point) pairs on it: the families that
# need rho = 0 apply only where a rho axis holds an exact 0.
GRID_COMMANDS = (
    ("sweep", ["sweep"], 227_500),
    ("Th3", ["certify", "--theorem", "Th3"], 2_500),
    ("Th4", ["certify", "--theorem", "Th4"], 17_500),
    ("Th5", ["certify", "--theorem", "Th5"], 32_500),
    ("Th6", ["certify", "--theorem", "Th6"], 227_500),
    ("audit", ["audit", "--families", "optimized"], 475_000),
)


class GridCommands(CommandWorkload):
    """Bulk bound-side traffic: grid evaluation, rows, finalize, serialization.

    Every run makes at least two sweeps, whose CSV files must be
    byte-identical.
    """

    min_iterations = 2
    commands = GRID_COMMANDS

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.sweep_digest = None

    def check(self, label, data, code):
        units = self._command(label)[1]
        text = data.decode("utf-8", errors="replace")
        if label == "sweep":
            digest = hashlib.sha256(data).hexdigest()
            if self.sweep_digest is None:
                self.sweep_digest = digest
            elif digest != self.sweep_digest:
                return "sweep: CSV differs from the run's first sweep"
            if code != 0:
                return f"sweep: exit code {code}"
            return checks.check_sweep_csv(text, units)
        if label == "audit":
            return checks.check_audit_csv(text, code)
        return checks.check_certify_json(text, label, units, code)


SAMPLES = 1_000_000
P2 = ["--M", "2", "--P", "10", "--c2", "4", "--rho", "0"]
MC_POINTS = (
    # The six canonical points of acceptance criterion 8.
    ("san-c2=4", "san", P2 + ["--alpha-bar", "0"]),
    ("san-c=0", "san", ["--M", "2", "--P", "10", "--c2", "0", "--rho", "0",
                        "--alpha-bar", "0"]),
    ("gp-ab=1", "gp", P2 + ["--alpha-bar", "1"]),
    ("gp-ab=0.3", "gp", P2 + ["--alpha-bar", "0.3"]),
    ("scheme-ab=0.3", "scheme", P2 + ["--alpha-bar", "0.3"]),
    ("scheme-M3-rho0.64", "scheme", ["--M", "3", "--P", "10", "--c2", "4",
                                     "--rho", "0.64", "--alpha-bar", "0"]),
    # The four decomposition points of acceptance criterion 9.
    ("decomp-M2", "decomposition", ["--M", "2", "--rho", "0.5"]),
    ("decomp-M4", "decomposition", ["--M", "4", "--rho", repr(-1.0 / 3.0)]),
    ("decomp-M5", "decomposition", ["--M", "5", "--rho", "0.3"]),
    ("decomp-M3", "decomposition", ["--M", "3", "--rho", "-0.5"]),
)


class McVerify(CommandWorkload):
    """Philox draws, blocked moments and the MI functional; no bound code."""

    reference = staticmethod(interpreter_kernel)

    commands = tuple(
        (label, ["simulate", "--target", target, *params,
                 *(["--P", "1", "--c2", "1"] if target == "decomposition"
                   else []),
                 "--samples", str(SAMPLES)], SAMPLES)
        for label, target, params in MC_POINTS)

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.targets = {label: target for label, target, _ in MC_POINTS}
        self.seeds = random.Random(seed)

    def _command(self, label):
        argv, units = super()._command(label)
        return argv + ["--seed", str(self.seeds.getrandbits(32))], units

    def check(self, label, data, code):
        problem, z = checks.check_simulate_json(
            data.decode("utf-8", errors="replace"), label,
            self.targets[label], code)
        if z is not None:
            self.scheme_z.append(z)
        return problem


POOL = 100_000         # distinct points per seed, cycled by the timed loop
BATCH = 5_000          # points per iteration of the timed loop
OUT_OF_RANGE = 0.05    # share of finite points outside the model's domain
RHO_ZERO = 0.3         # share of valid points at exactly rho = 0
M_RANGE = (2, 16)
P_RANGE = (0.1, 1e4)
C2_RANGE = (1e-3, 1e6)
ERRORS = (InvalidM, InvalidPower, InvalidGain, InfeasibleRho)


def make_points(seed, n=POOL):
    """Seeded point stream: (M, P, c, rho, two-receiver pair?, expected error).

    Exactly ``OUT_OF_RANGE`` of the points have one field pushed out of its
    range; they cycle through the four ``ChannelParams`` errors.
    """
    rng = np.random.default_rng(seed)
    M = rng.integers(M_RANGE[0], M_RANGE[1] + 1, n)
    lo = -1.0 / (M - 1)
    rho = lo + (1.0 - lo) * rng.random(n)
    rho[rng.random(n) < RHO_ZERO] = 0.0
    P = 10.0 ** rng.uniform(np.log10(P_RANGE[0]), np.log10(P_RANGE[1]), n)
    c = np.sqrt(10.0 ** rng.uniform(np.log10(C2_RANGE[0]),
                                    np.log10(C2_RANGE[1]), n))
    expected = [None] * n
    bad = rng.permutation(n)[:round(n * OUT_OF_RANGE)]
    for k, i in enumerate(bad):
        error = ERRORS[k % len(ERRORS)]
        expected[i] = error
        if error is InvalidM:
            M[i] = rng.integers(-2, 2)
        elif error is InvalidPower:
            P[i] = -P[i] if k % 8 == 1 else 0.0
        elif error is InvalidGain:
            c[i] = -c[i]
        elif k % 8 < 4:
            rho[i] = 1.0 + rng.uniform(1e-3, 1.0)
        else:
            rho[i] = lo[i] - rng.uniform(1e-3, 1.0)
    return [(m, p, cc, r, m == 2 and r == 0.0, e) for m, p, cc, r, e in
            zip(M.tolist(), P.tolist(), c.tolist(), rho.tolist(), expected)]


LOOSENED = bounds.APPENDIX_LOOSENED
APPENDIX = bounds.APPENDIX_FORM


class PointQueries:
    """Single points through the scalar API, one call at a time.

    Latency is summarized per batch of ``BATCH`` points (answer time,
    median and 99th percentile).  The answer time and the median are
    rescaled to the nominal pace by the probes just before and after the
    batch (see ``Pace``).  The 99th percentile is not: it sits an
    interruption of a few microseconds above the median, which does not
    follow the pace, and as measured it moves less with the host's load
    unscaled.  The run reports the median over its batches of the points
    per second of answer time, of the median and of the 99th percentile.
    Points are timed in wall time, as a CPU clock costs a system call, a
    sizable share of a point; the medians leave out the batches in which
    the host took the CPU away.  Memory stays flat however long the run is.
    """

    min_iterations = 1
    sampled = False            # probed between batches
    reference = staticmethod(numeric_kernel)

    def __init__(self, seed, tmpdir=None, points=None):
        self.points = make_points(seed) if points is None else points
        self.tally = Tally()
        self.batches = []          # (points, answer s, p50 s, p99 s, marks)
        self.scheme_z = []
        self.next = 0

    def answer(self, points):
        """Answer and check each point; return the per-point times."""
        record, clock = self.tally.record, perf_counter
        latencies = array("d")
        lat = latencies.append
        for M, P, c, rho, pair2, expected in points:
            start = clock()
            try:
                p = model.ChannelParams(M, P, c, rho)
                if pair2:
                    inner = bounds.ccdp2_inner(p)
                    outer = bounds.ccdp2_outer(p, LOOSENED)
                else:
                    inner = bounds.ccdp_es_inner(p)
                    outer = bounds.ccdp_es_outer(p, APPENDIX)
            except Exception as exc:  # checked below; a wrong one fails the op
                elapsed = clock() - start
                problem = checks.check_point_error(exc, expected)
            else:
                elapsed = clock() - start
                problem = (checks.check_point_error(None, expected)
                           if expected is not None else
                           checks.check_point(inner.value, outer.value,
                                              1.0 if pair2 else 2.25))
            lat(elapsed)
            record(problem)
        return latencies

    def iteration(self, pace):
        batch = self.points[self.next:self.next + BATCH]
        self.next = (self.next + BATCH) % len(self.points)
        before = pace.mark()
        latencies = self.answer(batch)
        self.batches.append((len(batch), sum(latencies),
                             _percentile(latencies, 50),
                             _percentile(latencies, 99), before, pace.mark()))
        pace.probe()

    def trace_pass(self):
        return sum(self.answer(self.points))

    def summary(self, pace=None):
        """Metrics of the run, rescaled by ``pace`` or plain."""
        rates, p50s, p99s = [], [], []
        for points, total, p50, p99, *marks in self.batches:
            rates.append(points / (pace.scale(total, *marks) if pace
                                   else total))
            p50s.append(pace.scale(p50, *marks) if pace else p50)
            p99s.append(p99)
        return {
            "throughput_per_s": median(rates),
            "call_us_p50": median(p50s) * 1e6,
            "call_us_p99": median(p99s) * 1e6,
        }


WORKLOADS = {
    "grid-commands": GridCommands,
    "point-queries": PointQueries,
    "mc-verify": McVerify,
}


def timed_run(workload, seconds):
    """Run whole iterations while the next one is expected to end in time.

    Returns the metrics at the nominal pace, the same metrics in plain wall
    time, and the pace probes' statistics.
    """
    start = perf_counter()
    pace = Pace(workload.reference)
    done, last = 0, 0.0
    with pace.sampling() if workload.sampled else contextlib.nullcontext():
        while done < workload.min_iterations or \
                perf_counter() - start + last <= seconds:
            t0 = perf_counter()
            workload.iteration(pace)
            last = perf_counter() - t0
            done += 1
    pace.probe()  # the first probe after the last operation
    return workload.summary(pace), workload.summary(), pace.stats()


def traced_run(workload):
    """One untraced and one traced pass over the same inputs."""
    untraced = workload.trace_pass()
    with Tracer(MODULES) as tracer:
        traced = workload.trace_pass()
    return tracer.metrics(traced, untraced, workload.scheme_z)
