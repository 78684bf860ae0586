"""cli-corpus: one fresh `python -m ptspin` process per invocation.

The corpus is the fifteen invocations of the CLI acceptance table (exit codes
0, 1 and 2), plus a seeded `bethe` run with six momenta (about 0.5 MB of
JSON, one large serialisation) and two seeded 400-point sweeps, which
together hold the 90th percentile.  A process
spends most of its time importing Python and numpy, so import trimming and
the `cli`/`boundary` refactors (ROADMAP items 4 and 5) move this workload and
the kernels barely do.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from ptspin import ParseError, cli, load_boundary_condition

import inputs
from common import check
from tracing import median_or_zero

_EYE4 = [[[1.0 if r == c else 0.0, 0.0] for c in range(4)] for r in range(4)]
_ZERO4 = [[[0.0, 0.0]] * 4 for _ in range(4)]


def _scaled(m, s):
    return [[[s * re, im] for re, im in row] for row in m]


# The input documents of the acceptance table, written during set-up.
DOCUMENTS = {
    "free_nonseparated.json": {"kind": "nonseparated", "n": 2,
                               "A": _EYE4, "B": _ZERO4, "C": _ZERO4, "D": _EYE4},
    "perturbed_a.json": {"kind": "nonseparated", "n": 2,
                         "A": _scaled(_EYE4, 1.1), "B": _ZERO4, "C": _ZERO4, "D": _EYE4},
    "scalar_pt1.json": {"kind": "scalar_pt_type1", "theta": 0.0, "phi": 0.0, "b": 1.0, "c": 3.0},
    "delta_complex.json": {"kind": "delta", "n": 1, "C": [[[0.0, 1.0]]]},
    "hspin_minus_identity.json": {"kind": "hspin", "params": {
        "a": -1.0, "b": -1.0, "c": 0.0, "d": 0.0, "f": -1.0, "g": 0.0,
        "e1": 0.0, "e2": 0.0, "e3": 0.0, "e4": 0.0}},
    "hspin_complex_spectrum.json": {"kind": "hspin", "params": {
        "a": 0.0, "b": 0.0, "c": 1.0, "d": -1.0, "f": 0.0, "g": 0.0,
        "e1": 0.0, "e2": 0.0, "e3": 0.0, "e4": 0.0}},
    "hspin_diag.json": {"kind": "hspin", "params": {
        "a": -1.0, "b": -2.0, "c": 0.0, "d": 0.0, "f": -3.0, "g": 0.0,
        "e1": 0.0, "e2": 0.0, "e3": 0.0, "e4": 0.0}},
    "scalar_pt2_dirichlet.json": {"kind": "scalar_pt_type2", "theta": 0.5, "h0": 0.0, "h1": 2.0},
    "unknown_kind.json": {"kind": "mystery"},
}
TRUNCATED = '{"kind": "nonsep'

TABLE = (
    (0, ("validate", "free_nonseparated.json")),
    (1, ("validate", "perturbed_a.json")),
    (0, ("validate", "scalar_pt1.json")),
    (1, ("validate", "delta_complex.json")),
    (0, ("yop", "hspin_minus_identity.json", "--k1", "1.0", "--k2", "-1.0")),
    (1, ("yop", "hspin_complex_spectrum.json", "--k1", "2.0", "--k2", "0.0")),
    (0, ("ybe", "hspin_diag.json", "--k", "1.0,0.3,-0.7")),
    (0, ("bethe", "hspin_minus_identity.json", "--k", "1.0,-1.0")),
    (0, ("bound", "hspin_diag.json", "--particles", "2")),
    (0, ("bound", "hspin_complex_spectrum.json", "--particles", "2")),
    (0, ("classify", "hspin_diag.json")),
    (2, ("classify", "scalar_pt2_dirichlet.json")),
    (2, ("validate", "truncated.json")),
    (2, ("validate", "unknown_kind.json")),
    (0, ("sweep", "hspin_diag.json", "--run", "ybe", "--param", "g=0.0:0.2:3",
         "--k", "1.0,0.3,-0.7")),
)
SWEEP_STEPS = 400
IMPORT_PROBES = 5
INPROC_REPEATS = 3
PROCESS_TIMEOUT_S = 60
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import ptspin; "
                 "print(time.perf_counter() - t)")


@dataclass(frozen=True)
class Task:
    argv: tuple[str, ...]
    expected_code: int
    expected_stdout: bytes


def run_inprocess(argv) -> tuple[int, str]:
    """Exit code and stdout of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class Workload:
    def __init__(self, seed: int, workdir, child_env, traced: bool):
        rng = np.random.default_rng([seed, 3])
        self.env = child_env
        self.cwd = workdir
        self.inproc_seconds: list[float] = []
        self.load_seconds: list[float] = []
        self.import_seconds: list[float] = []

        files = {name: json.dumps(doc) for name, doc in DOCUMENTS.items()}
        files["truncated.json"] = TRUNCATED
        files["bethe_random.json"] = json.dumps(
            {"kind": "hspin", "params": inputs.hspin_params(rng)})
        files["sweep_random.json"] = json.dumps(
            {"kind": "hspin", "params": inputs.hspin_params(rng)})
        path = {name: os.path.join(workdir, name) for name in files}
        for name, text in files.items():
            with open(path[name], "w", encoding="utf-8") as handle:
                handle.write(text)

        bethe_k = ",".join(repr(k) for k in inputs.separated_momenta(rng, 6))
        sweep_k = ",".join(repr(k) for k in inputs.separated_momenta(rng, 3))
        g_lo = float(rng.uniform(-1.0, 0.0))
        grid = f"g={g_lo!r}:{g_lo + 1.0!r}:{SWEEP_STEPS}"
        table = list(TABLE) + [
            (0, ("bethe", "bethe_random.json", f"--k={bethe_k}")),
            (0, ("sweep", "sweep_random.json", "--run", "ybe", "--param", grid, f"--k={sweep_k}")),
            (0, ("sweep", "sweep_random.json", "--run", "classify", "--param", grid)),
        ]
        tasks = []
        for code, (command, doc, *rest) in table:
            argv = (command, path[doc], *rest)
            _, stdout = run_inprocess(argv)
            tasks.append(Task(argv, code, stdout.encode("utf-8")))
            if traced:
                self._probe_layers(argv)
        rng.shuffle(tasks)
        self.cycles = [tasks]
        self.warmup = tasks[:1]
        if traced:
            self.import_seconds = [self._import_probe() for _ in range(IMPORT_PROBES)]

    def _probe_layers(self, argv) -> None:
        """Traced runs time the in-process CLI and the loader on each input."""
        for _ in range(INPROC_REPEATS):
            start = time.perf_counter()
            run_inprocess(argv)
            self.inproc_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        with contextlib.suppress(ParseError):
            load_boundary_condition(argv[1])
        self.load_seconds.append(time.perf_counter() - start)

    def _import_probe(self) -> float:
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=self.env,
                              cwd=self.cwd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    def run(self, task: Task, tracer) -> None:
        with tracer.span("cli.process"):
            done = subprocess.run([sys.executable, "-m", "ptspin", *task.argv], env=self.env,
                                  cwd=self.cwd, capture_output=True, timeout=PROCESS_TIMEOUT_S)
        check(done.returncode == task.expected_code,
              f"{task.argv[0]} exited {done.returncode}, expected {task.expected_code}")
        check(done.stdout == task.expected_stdout,
              f"{task.argv[0]} stdout differs from the in-process output")

    def layer_metrics(self, tracer, traced_rotations: int) -> dict[str, float]:
        inproc_ms = 1e3 * median_or_zero(self.inproc_seconds)
        process_ms = 1e3 * median_or_zero(tracer.durations("cli.process"))
        return {
            "boundary.load_ms": 1e3 * median_or_zero(self.load_seconds),
            "cli.import_ms": 1e3 * median_or_zero(self.import_seconds),
            "cli.main_inproc_ms": inproc_ms,
            "cli.process_overhead_ms": process_ms - inproc_ms,
        }
