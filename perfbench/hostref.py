"""The reference process: the host's speed, measured beside the program.

On a shared host the CPU time of identical work drifts with the
neighbours' load, and by more than the bounds: the same SASRec tape
step took 104 ms of CPU in one quarter of an hour and 195 ms in the
next, and fixed numpy or interpreter kernels slowed by different
factors than the step, so no synthetic kernel tracks it.  What tracks
it is the same kind of work: ``perfbench/refsrc/repro`` is a verbatim
copy of the program's modules as they were when the benchmark was
defined.  An untraced run starts it in a second process
(``python3 perfbench/hostref.py``) with the same workload and seed, and
hands it the CPU in turns: the reference's set-ups after the run's,
then one reference step after each timed step, or one serving segment
after each of the run's.  The two processes never run at once, so each
unit of the reference meets the host as the run's units around it did.

The run scales each step's CPU time, or each serving segment's, by
``NOMINAL[workload] / the reference's next unit`` (set-up by the
reference's set-up; see :func:`scale`): the figures read as CPU time on
the reference host at the speed it had when ``NOMINAL`` was measured.  A change to the program
moves its own CPU time and not the reference's.

Protocol over two pipes: the run writes ``t`` (take a turn) or ``q``
(quit); the reference answers ``d`` after each turn.  Its first turn is
its set-up; every later one is one training step or one serving
segment.  After ``q`` it prints one JSON line and exits.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REF_SRC = ROOT / "perfbench" / "refsrc"

#: The reference process's figures on the reference host (Intel Xeon
#: at 2.1 GHz, 2 vCPUs): median CPU ms per training step or per
#: answered request (``unit_ms``), and median set-up CPU seconds
#: (``setup_s``).  They set the scale of the reported figures and
#: nothing else.
NOMINAL = {
    "train_slime_dynamic": {"unit_ms": 140.0, "setup_s": 0.62},
    "train_sasrec_tape": {"unit_ms": 105.0, "setup_s": 0.50},
    "serve_mixed_100k": {"unit_ms": 5.4, "setup_s": 1.5},
}

#: Longest wait for one reference turn (set-up included) before the
#: run gives up on it.
TURN_TIMEOUT_S = 150.0


class ReferenceError(RuntimeError):
    pass


class Reference:
    """The run's handle on its reference process."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.proc = None
        self.turns = 0

    def start(self) -> None:
        """Start the process; its first turn will be its set-up."""
        workload, seed = self.workload, self.seed
        to_ref_r, self._to_ref = os.pipe()
        self._from_ref, from_ref_w = os.pipe()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--fds", f"{to_ref_r},{from_ref_w}"]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            pass_fds=(to_ref_r, from_ref_w),
        )
        os.close(to_ref_r)
        os.close(from_ref_w)

    def turn(self) -> None:
        """Give the reference one turn and wait until it is done."""
        os.write(self._to_ref, b"t")
        ready, _, _ = select.select([self._from_ref], [], [], TURN_TIMEOUT_S)
        answer = os.read(self._from_ref, 1) if ready else b""
        if answer != b"d":
            raise ReferenceError(
                f"reference process gave no answer to turn {self.turns} "
                f"(exit code {self.proc.poll()})"
            )
        self.turns += 1

    def finish(self) -> dict:
        """Stop the reference and return its result line."""
        os.write(self._to_ref, b"q")
        try:
            out, _ = self.proc.communicate(timeout=60.0)
        except subprocess.TimeoutExpired as exc:
            raise ReferenceError("reference process did not exit") from exc
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise ReferenceError(f"reference process exited {self.proc.returncode}")
        return json.loads(lines[-1])

    def close(self) -> None:
        """Stop the process whatever state it is in, and wait for it."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        for fd in (self._to_ref, self._from_ref):
            try:
                os.close(fd)
            except OSError:
                pass


def scale(name: str, units: list, ref: dict, setup_s: float,
          throughput_per_s: float, tail_pct: float) -> tuple:
    """``(metrics, record)``: the time metrics at the reference host's
    nominal speed.

    ``units`` holds the run's CPU ms samples grouped by unit (one step,
    or one serving segment's windows); ``ref["unit_ms"]`` the
    reference's median for the unit that followed each.  Every sample
    is scaled by its own unit's factor ``NOMINAL unit_ms / reference
    unit``, so the host's drift from one unit to the next cancels too;
    throughput by the median factor, set-up by the reference's set-up.
    """
    from perfbench.stats import median, percentile

    nominal = NOMINAL[name]
    ref_units = ref.get("unit_ms", [])
    if len(ref_units) != len(units):
        raise ReferenceError(
            f"reference took {len(ref_units)} units, the run {len(units)}")
    if not (all(u > 0.0 for u in ref_units) and ref.get("setup_s", 0.0) > 0.0):
        raise ReferenceError(f"reference process measured nothing: {ref}")
    factors = [nominal["unit_ms"] / u for u in ref_units]
    scaled = [v * f for samples, f in zip(units, factors) for v in samples]
    unit = median(factors)
    setup = nominal["setup_s"] / ref["setup_s"]
    metrics = {
        "setup_s": setup_s * setup,
        "p50_ms": percentile(scaled, 50.0),
        "tail_ms": percentile(scaled, tail_pct),
        "throughput_per_s": throughput_per_s / unit,
    }
    record = {"unit_factor": unit, "setup_factor": setup,
              "reference_units": len(ref_units),
              "reference_unit_ms": median(ref_units),
              "reference_setup_s": ref["setup_s"]}
    return metrics, record


class Turns:
    """Reference-side end of the pipes: ``for _ in turns:`` yields once
    per turn and reports each as done when the loop body ends."""

    def __init__(self, fd_in: int, fd_out: int) -> None:
        self.fd_in, self.fd_out = fd_in, fd_out

    def __iter__(self):
        while True:
            command = os.read(self.fd_in, 1)
            if command != b"t":  # "q", or end of file if the run died
                return
            yield
            os.write(self.fd_out, b"d")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="benchmark reference process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--fds", required=True)
    args = parser.parse_args(argv)
    fd_in, fd_out = (int(v) for v in args.fds.split(","))
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(REF_SRC))
    from perfbench import host

    host.pin_blas_threads()
    import repro

    if Path(repro.__file__).resolve().parent != REF_SRC / "repro":
        print(f"error: reference imported {repro.__file__}", file=sys.stderr)
        return 2
    from perfbench import workloads

    module = workloads.module(args.workload)
    result = module.reference_turns(args.workload, args.seed, Turns(fd_in, fd_out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
