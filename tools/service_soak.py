#!/usr/bin/env python3
"""Kill/restart and resource-exhaustion soak harness for the placement
service (twserved/twcli).

The acceptance criteria of docs/ROBUSTNESS.md "Placement service",
checked end-to-end over real processes and a real Unix socket:

  * a daemon killed hard at any point in a job's life must, after
    restart, converge to the *byte-identical* result of a
    never-interrupted run — by reading the job records back plus
    checkpoint re-adoption (work in flight), or by serving the result
    cache (work that finished before the crash);
  * resource exhaustion (overload, full disks, slow or half-dead
    clients) must end in *typed* outcomes — kOverloaded rejections with
    retry hints, degraded modes surfaced in stats — never a crash, a
    hang, or a silently wrong result.

Scenarios (each a separate ctest case `serve.soak.<name>`, each against
a fresh state dir; recovery scenarios first record reference
fingerprints from an uninterrupted daemon):

  baseline        - uninterrupted runs; results must be deterministic
                    and not spuriously cached
  kill_mid_anneal - three concurrent submissions; `--kill-at
                    progress:250` fires deep in the anneal with the
                    queue loaded; restart re-adopts the recorded jobs
                    from their newest checkpoints and duplicate
                    submissions must return every baseline fingerprint
  kill_pre_ack    - `--kill-at post-journal:1` dies after the job record
                    but before the client ever saw an ack; the job
                    still exists after restart (write-ahead ordering)
  sigkill         - a real `kill -9` at an arbitrary wall-clock moment;
                    whatever state it lands in, the restarted daemon
                    must still produce the baseline fingerprint, then
                    serve the duplicate from cache (cached=1)
  overload        - a saturated one-worker daemon sheds normal/batch
                    submissions with typed kOverloaded (twcli
                    --no-retry observes the shed itself) while an
                    urgent submission is still admitted — preempting
                    the running batch job — and completes byte-identically
  disk_full       - injected ENOSPC at every durability site: a failed
                    job-record write sheds the submission typed-retryable and
                    the client's backoff retry succeeds; a dead cache
                    degrades to cache-off with results still delivered
                    byte-identically; a checkpoint quota degrades to
                    checkpoint-off with the job still completing; the
                    cache stays inside its byte budget under a multi-job
                    burst and no job record outlives its job
  slow_client     - a reader past its outgoing-buffer bound loses
                    progress events (counted) but never its result; an
                    idle connection is reaped after its tick deadline
                    without its recorded job being cancelled
  preempt_resume  - an urgent submission preempts a running batch job
                    at a checkpoint boundary; the batch job resumes and
                    must fingerprint byte-identically to an
                    uninterrupted run

Exit code 0 on success; nonzero with a diagnostic on any mismatch.
Run by the service-soak CI job via `ctest -R serve.soak`.
"""

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

SEEDS = [11, 12, 13]


def submit_args(seed):
    return ["--fast", "--replicas", "2", "--checkpoint-every", "1",
            "--seed", str(seed)]


def info(msg):
    print(f"service_soak: {msg}", flush=True)


def fail(msg):
    print(f"service_soak: FAIL: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


class Daemon:
    """One twserved process over a per-scenario state dir."""

    # Started and not yet seen to exit. main() kills whatever is left when
    # a scenario ends early, so a failed scenario never leaks a daemon.
    live = []

    def __init__(self, binary, root, kill_at=None, extra=None):
        os.makedirs(root, exist_ok=True)
        self.socket = os.path.join(root, "tw.sock")
        self.state = os.path.join(root, "state")
        self.log = open(os.path.join(root, "daemon.log"), "ab")
        # A killed predecessor leaves its socket file behind; remove it
        # first so waiting for the path to appear observes the *new*
        # daemon, which publishes the path only once it listens.
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        cmd = [binary, "--socket", self.socket, "--state", self.state]
        for spec in kill_at or []:
            cmd += ["--kill-at", spec]
        cmd += extra or []
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=self.log)
        Daemon.live.append(self)
        deadline = time.monotonic() + 10.0
        while not os.path.exists(self.socket):
            if self.proc.poll() is not None:
                fail(f"daemon exited rc={self.proc.returncode} before "
                     "creating its socket")
            if time.monotonic() > deadline:
                fail("daemon never created its socket")
            time.sleep(0.01)

    def _exited(self):
        Daemon.live.remove(self)
        self.log.close()

    def wait_killed(self, timeout=120.0):
        """Waits for the armed kill switch (hard exit 137)."""
        try:
            rc = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            fail("armed kill point never fired")
        self._exited()
        if rc != 137:
            fail(f"expected hard-exit 137, daemon exited rc={rc}")

    def sigkill(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30.0)
        self._exited()

    def shutdown(self, twcli):
        """Asks the daemon to drain and waits for it to exit 0 on its own.

        twcli returns at the acknowledgement, before the daemon has
        drained and exited; a signal sent in that window would cut its
        exit short. A --coverage build writes its .gcda counts at exit,
        so they would be lost, and a file torn mid-write stops every
        later process's counts for it from merging.
        """
        cli(twcli, self.socket, "shutdown")
        try:
            rc = self.proc.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            fail("daemon still running 60 s after its shutdown request")
        self._exited()
        if rc != 0:
            fail(f"daemon exited rc={rc} after its shutdown request")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._exited()


def cli(binary, socket, *args, check=True, timeout=300.0):
    out = subprocess.run([binary, "--socket", socket, *args],
                         capture_output=True, text=True, timeout=timeout)
    if check and out.returncode != 0:
        fail(f"twcli {' '.join(args)} rc={out.returncode}: "
             f"{out.stdout}{out.stderr}")
    return out


RESULT_RE = re.compile(r"^result job=\d+ status=(\S+) cached=(\d) "
                       r"fingerprint=([0-9a-f]{16})", re.M)


def parse_result(stdout, stderr=""):
    """Returns (status, cached, fingerprint) from a twcli result line."""
    m = RESULT_RE.search(stdout)
    if not m:
        fail(f"no result line in twcli output:\n{stdout}{stderr}")
    return m.group(1), m.group(2) == "1", m.group(3)


def submit(twcli, socket, yal, seed, *extra):
    """Submits the canonical job for `seed`, returns (fingerprint, cached)."""
    out = cli(twcli, socket, "submit", yal, *submit_args(seed), *extra)
    status, cached, fp = parse_result(out.stdout, out.stderr)
    if status != "completed":
        fail(f"job ended status={status}, wanted completed")
    return fp, cached


def stats(twcli, socket):
    """Fetches the daemon's health snapshot as a {key: int} dict."""
    out = cli(twcli, socket, "stats")
    line = out.stdout.strip()
    if not line.startswith("stats "):
        fail(f"no stats line in twcli output:\n{out.stdout}{out.stderr}")
    parsed = {}
    for tok in line.split()[1:]:
        key, _, val = tok.partition("=")
        if "/" in val:  # per-priority triple: batch/normal/urgent
            parsed[key] = [int(v) for v in val.split("/")]
        else:
            parsed[key] = int(val)
    return parsed


def baselines(args, root, seeds):
    """Records reference fingerprints from an uninterrupted daemon."""
    d = Daemon(args.twserved, os.path.join(root, "ref"))
    ref = {}
    for seed in seeds:
        ref[seed], cached = submit(args.twcli, d.socket, args.yal, seed)
        if cached:
            fail(f"reference run seed={seed} claims to be cached")
    d.shutdown(args.twcli)
    info("references " + " ".join(f"seed{s}={ref[s]}" for s in seeds))
    return ref


def make_root(args, name):
    root = os.path.join(args.work, name)
    os.makedirs(root)
    return root


# --- scenarios ---------------------------------------------------------------


def scenario_baseline(args):
    """Uninterrupted runs are deterministic and never spuriously cached."""
    root = make_root(args, "baseline")
    ref = baselines(args, root, SEEDS)
    # A second uninterrupted daemon over a fresh state dir must reproduce
    # every fingerprint from scratch.
    d = Daemon(args.twserved, os.path.join(root, "again"))
    for seed in SEEDS:
        fp, cached = submit(args.twcli, d.socket, args.yal, seed)
        if fp != ref[seed]:
            fail(f"baseline seed={seed} not deterministic: {fp} != "
                 f"{ref[seed]}")
        if cached:
            fail(f"fresh-state run seed={seed} claims to be cached")
    d.shutdown(args.twcli)
    info("baseline runs deterministic across daemons")


def scenario_kill_mid_anneal(args):
    """Deterministic mid-anneal kill under concurrent load: three jobs
    are submitted at once and the daemon dies at the 250th progress
    event, deep in the anneal, with the queue loaded and the running
    jobs journaled and checkpointed. The restart re-adopts them; the
    duplicate submissions attach to the recovered runs (or hit the
    cache if one already finished) and must see the baseline bytes."""
    root = make_root(args, "kill_mid_anneal")
    ref = baselines(args, root, SEEDS)
    d = Daemon(args.twserved, root, kill_at=["progress:250"])
    doomed = [subprocess.Popen(
        [args.twcli, "--socket", d.socket, "--no-retry", "submit", args.yal,
         *submit_args(seed)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for seed in SEEDS]
    d.wait_killed()
    for p in doomed:
        p.wait(timeout=60.0)  # their connections died with the daemon
    d = Daemon(args.twserved, root)  # same state dir: records read back
    for seed in SEEDS:
        fp, _ = submit(args.twcli, d.socket, args.yal, seed)
        if fp != ref[seed]:
            fail(f"mid-anneal recovery seed={seed} fingerprint {fp} != "
                 f"baseline {ref[seed]}")
    d.shutdown(args.twcli)
    info("mid-anneal kill under concurrent load recovered byte-identically")


def scenario_kill_pre_ack(args):
    """Kill between the job record's write and the ack: write-ahead
    ordering means the job exists after restart even though no client
    ever saw an ack."""
    root = make_root(args, "kill_pre_ack")
    ref = baselines(args, root, [SEEDS[0]])
    d = Daemon(args.twserved, root, kill_at=["post-journal:1"])
    victim = subprocess.Popen(
        [args.twcli, "--socket", d.socket, "--no-retry", "submit", args.yal,
         *submit_args(SEEDS[0])],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    d.wait_killed()
    victim.wait(timeout=60.0)
    d = Daemon(args.twserved, root)
    fp, _ = submit(args.twcli, d.socket, args.yal, SEEDS[0])
    if fp != ref[SEEDS[0]]:
        fail(f"pre-ack recovery fingerprint {fp} != baseline "
             f"{ref[SEEDS[0]]}")
    d.shutdown(args.twcli)
    info("pre-ack kill recovered byte-identically")


def scenario_sigkill(args):
    """SIGKILL at an arbitrary moment. The landing point varies run to
    run (that is the point); the postcondition never does."""
    root = make_root(args, "sigkill")
    ref = baselines(args, root, [SEEDS[0]])
    d = Daemon(args.twserved, root)
    victim = subprocess.Popen(
        [args.twcli, "--socket", d.socket, "--no-retry", "submit", args.yal,
         *submit_args(SEEDS[0])],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    time.sleep(0.05)
    d.sigkill()
    victim.wait(timeout=60.0)
    d = Daemon(args.twserved, root)
    fp, _ = submit(args.twcli, d.socket, args.yal, SEEDS[0])
    if fp != ref[SEEDS[0]]:
        fail(f"SIGKILL recovery fingerprint {fp} != baseline "
             f"{ref[SEEDS[0]]}")
    # By now the job is terminal either way: the next duplicate must be
    # served from the on-disk result cache without re-annealing.
    fp, cached = submit(args.twcli, d.socket, args.yal, SEEDS[0])
    if not cached or fp != ref[SEEDS[0]]:
        fail(f"expected cached baseline duplicate, got cached={cached} "
             f"fingerprint={fp}")
    d.shutdown(args.twcli)
    info("SIGKILL recovered byte-identically; duplicate served from cache")


def scenario_overload(args):
    """Priority-aware load shedding on a saturated daemon: with one
    worker pinned by a long batch job, normal and batch submissions are
    shed with typed kOverloaded (+ retry hint) while an urgent
    submission is still admitted — preempting the batch job — and
    completes byte-identically to its reference."""
    root = make_root(args, "overload")
    ref = baselines(args, root, [SEEDS[1]])
    # max-jobs 2: urgent admits below 2 in flight, normal/batch below 1.
    d = Daemon(args.twserved, root,
               extra=["--threads", "1", "--max-jobs", "2"])
    # The pin: a *non*-fast batch job — an order of magnitude more anneal
    # work than the --fast reference runs, so it is reliably still in
    # flight while the probes below land. Its fingerprint is never
    # compared; shutdown cancels it.
    pin = subprocess.Popen(
        [args.twcli, "--socket", d.socket, "--no-retry", "submit", args.yal,
         "--seed", str(SEEDS[0]), "--replicas", "1",
         "--checkpoint-every", "1", "--priority", "batch"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 10.0
    while stats(args.twcli, d.socket)["in_flight"] < 1:
        if time.monotonic() > deadline:
            fail("pin job never became visible in flight")
        time.sleep(0.02)

    for prio in ("normal", "batch"):
        probe = cli(args.twcli, d.socket, "--no-retry", "submit", args.yal,
                    *submit_args(SEEDS[1]), "--priority", prio, check=False)
        if probe.returncode != 3 or "overloaded" not in probe.stderr:
            fail(f"{prio} probe should shed typed-overloaded, got "
                 f"rc={probe.returncode}:\n{probe.stdout}{probe.stderr}")

    # Urgent class is still admitted; with the lone worker busy it
    # preempts the batch pin at its next checkpoint and runs first.
    fp, cached = submit(args.twcli, d.socket, args.yal, SEEDS[1],
                        "--priority", "urgent")
    if cached or fp != ref[SEEDS[1]]:
        fail(f"urgent admission got cached={cached} fingerprint={fp}, "
             f"wanted fresh {ref[SEEDS[1]]}")

    s = stats(args.twcli, d.socket)
    if s["shed"] < 2:
        fail(f"expected >=2 shed submissions, stats shed={s['shed']}")
    if s["preempted"] < 1:
        fail(f"urgent job should have preempted the batch pin, stats "
             f"preempted={s['preempted']}")
    d.shutdown(args.twcli)  # cancels the pin cooperatively
    pin.wait(timeout=60.0)
    info("overload shed typed kOverloaded; urgent admitted + preempted "
         "+ byte-identical")


def scenario_disk_full(args):
    """Injected disk failure at every durability site ends typed, never
    fatal, and the byte budgets hold."""
    root = make_root(args, "disk_full")
    ref = baselines(args, root, [SEEDS[0]])

    # (a) One-shot ENOSPC on the submission's job record: the submission
    # is shed typed-retryable; twcli's deterministic backoff retry then
    # succeeds (the disk "recovered") byte-identically.
    d = Daemon(args.twserved, os.path.join(root, "wal"),
               extra=["--fail-disk", "journal-write:0:enospc"])
    out = cli(args.twcli, d.socket, "submit", args.yal,
              *submit_args(SEEDS[0]))
    status, cached, fp = parse_result(out.stdout, out.stderr)
    if "overloaded" not in out.stderr or "retrying" not in out.stderr:
        fail(f"WAL fault should surface as a retried kOverloaded:\n"
             f"{out.stdout}{out.stderr}")
    if status != "completed" or fp != ref[SEEDS[0]]:
        fail(f"retry after WAL fault got status={status} fp={fp}, wanted "
             f"completed {ref[SEEDS[0]]}")
    s = stats(args.twcli, d.socket)
    if s["journal_degraded"] != 1 or s["shed"] < 1:
        fail(f"WAL fault not surfaced in stats: {s}")
    d.shutdown(args.twcli)
    info("WAL ENOSPC shed typed-retryable; backoff retry succeeded")

    # (b) Cache disk permanently dead: the daemon flips to cache-off,
    # results are still computed and delivered byte-identically —
    # including for duplicates, which now re-anneal instead of hitting
    # the cache.
    d = Daemon(args.twserved, os.path.join(root, "cache"),
               extra=["--fail-disk", "cache-write:0+:enospc"])
    for expect_round in ("first", "duplicate"):
        fp, cached = submit(args.twcli, d.socket, args.yal, SEEDS[0])
        if cached or fp != ref[SEEDS[0]]:
            fail(f"cache-off {expect_round} run got cached={cached} "
                 f"fp={fp}, wanted fresh {ref[SEEDS[0]]}")
    s = stats(args.twcli, d.socket)
    if s["cache_off"] != 1:
        fail(f"cache-off mode not surfaced in stats: {s}")
    d.shutdown(args.twcli)
    info("dead cache degraded to cache-off; results still byte-identical")

    # (c) Checkpoint quota of one byte: every checkpoint write dies on
    # the quota, the first attempt ends checkpoint_error, the retry runs
    # checkpoint-free and completes. (Its fingerprint is the rotated
    # retry seed's, so only the typed outcome is asserted.)
    d = Daemon(args.twserved, os.path.join(root, "ckpt"),
               extra=["--checkpoint-quota", "1"])
    out = cli(args.twcli, d.socket, "submit", args.yal,
              *submit_args(SEEDS[0]), "--max-attempts", "2")
    status, _, _ = parse_result(out.stdout, out.stderr)
    if status != "completed":
        fail(f"checkpoint-quota job should complete checkpoint-free, got "
             f"status={status}")
    s = stats(args.twcli, d.socket)
    if s["checkpoint_off_jobs"] < 1:
        fail(f"checkpoint-off degradation not surfaced in stats: {s}")
    d.shutdown(args.twcli)
    info("checkpoint quota degraded to checkpoint-off; job completed")

    # (d) Byte budgets under a burst: a tiny cache budget forces
    # eviction and the cache stays inside it; each job's record goes
    # with its job, so once every job has finished none is left.
    d = Daemon(args.twserved, os.path.join(root, "budget"),
               extra=["--cache-budget-bytes", "300"])
    for seed in range(21, 27):
        submit(args.twcli, d.socket, args.yal, seed)
    s = stats(args.twcli, d.socket)
    if s["cache_bytes"] > s["cache_budget"]:
        fail(f"cache over budget: {s['cache_bytes']} > {s['cache_budget']}")
    if s["cache_evictions"] < 1:
        fail(f"expected cache evictions under a 300-byte budget: {s}")
    if s["journal_bytes"] != 0 or s["journal_records"] != 0:
        fail(f"job records outlived their finished jobs: {s}")
    d.shutdown(args.twcli)
    info("burst stayed inside the cache byte budget and left no job "
         f"record (cache={s['cache_bytes']}B, "
         f"{s['cache_evictions']} evictions)")


def scenario_slow_client(args):
    """Slow-reader and half-dead-client defense: progress events are
    shed off a connection past its outgoing-buffer bound (never the
    result), and an idle connection is reaped without cancelling its
    journaled job."""
    root = make_root(args, "slow_client")
    ref = baselines(args, root, [SEEDS[0], SEEDS[1]])

    # (a) Outgoing buffer bound of zero: every progress event is over
    # the bound and dropped; the result must still arrive.
    d = Daemon(args.twserved, os.path.join(root, "slow"),
               extra=["--max-out-bytes", "0"])
    out = cli(args.twcli, d.socket, "submit", args.yal,
              *submit_args(SEEDS[0]), "--progress")
    status, cached, fp = parse_result(out.stdout, out.stderr)
    if status != "completed" or fp != ref[SEEDS[0]]:
        fail(f"slow-reader run got status={status} fp={fp}, wanted "
             f"completed {ref[SEEDS[0]]}")
    if "progress " in out.stdout:
        fail("progress events leaked past a zero-byte buffer bound:\n" +
             out.stdout)
    s = stats(args.twcli, d.socket)
    if s["progress_dropped"] < 1:
        fail(f"no progress events counted as dropped: {s}")
    d.shutdown(args.twcli)
    info(f"slow reader lost {s['progress_dropped']} progress event(s), "
         "never the result")

    # (b) Idle reaping: a submitter that sends nothing while waiting is
    # reaped after its tick deadline; its job keeps running to
    # completion into the cache, where a reconnect finds it. Idle ticks
    # are poll-*timeout* ticks — the daemon only ages connections while
    # its loop is genuinely quiet — so the victim submits with a huge
    # --checkpoint-every to silence checkpoint/progress wake-ups during
    # its own anneal (fingerprint is unchanged: checkpointing is
    # invisible to the run).
    quiet_args = ["--fast", "--replicas", "2", "--seed", str(SEEDS[1]),
                  "--checkpoint-every", "1000000"]
    d = Daemon(args.twserved, os.path.join(root, "reap"),
               extra=["--threads", "1", "--tick-ms", "10",
                      "--idle-ticks", "2"])
    victim = subprocess.Popen(
        [args.twcli, "--socket", d.socket, "--no-retry", "submit", args.yal,
         *quiet_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    rc = victim.wait(timeout=60.0)
    if rc != 4:
        fail(f"reaped client should exit 4 (transport), got rc={rc}:\n"
             f"{victim.stdout.read()}{victim.stderr.read()}")
    deadline = time.monotonic() + 60.0
    while stats(args.twcli, d.socket)["in_flight"] > 0:
        if time.monotonic() > deadline:
            fail("reaped client's job never finished")
        time.sleep(0.05)
    # The reconnect must use the identical params (the digest keys the
    # cache) and must match the checkpointing reference fingerprint.
    out = cli(args.twcli, d.socket, "submit", args.yal, *quiet_args)
    status, cached, fp = parse_result(out.stdout, out.stderr)
    if status != "completed" or not cached or fp != ref[SEEDS[1]]:
        fail(f"reaped job should be served from cache on reconnect, got "
             f"status={status} cached={cached} fp={fp} "
             f"(want completed cached {ref[SEEDS[1]]})")
    s = stats(args.twcli, d.socket)
    if s["reaped"] < 1:
        fail(f"reap not counted in stats: {s}")
    d.shutdown(args.twcli)
    info("idle client reaped; its job survived into the cache")


def scenario_preempt_resume(args):
    """An urgent submission preempts a running batch job at a
    checkpoint boundary; the preempted job resumes from that checkpoint
    and must fingerprint byte-identically to a never-preempted run."""
    root = make_root(args, "preempt_resume")
    ref = baselines(args, root, [SEEDS[0], SEEDS[1]])
    d = Daemon(args.twserved, root, extra=["--threads", "1"])
    batch = subprocess.Popen(
        [args.twcli, "--socket", d.socket, "--no-retry", "submit", args.yal,
         *submit_args(SEEDS[0]), "--priority", "batch"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    time.sleep(0.05)  # let the batch job reach its anneal
    fp, _ = submit(args.twcli, d.socket, args.yal, SEEDS[1],
                   "--priority", "urgent")
    if fp != ref[SEEDS[1]]:
        fail(f"urgent job fingerprint {fp} != baseline {ref[SEEDS[1]]}")
    bout, berr = batch.communicate(timeout=120.0)
    if batch.returncode != 0:
        fail(f"preempted batch job failed rc={batch.returncode}:\n"
             f"{bout}{berr}")
    status, cached, fp = parse_result(bout, berr)
    if status != "completed" or cached or fp != ref[SEEDS[0]]:
        fail(f"preempted-then-resumed job got status={status} "
             f"cached={cached} fingerprint={fp}; wanted completed fresh "
             f"{ref[SEEDS[0]]} (byte-identical resume)")
    s = stats(args.twcli, d.socket)
    if s["preempted"] < 1 or s["resumed"] < 1:
        fail(f"preemption not visible in stats: {s}")
    d.shutdown(args.twcli)
    info("preempted-then-resumed job byte-identical to uninterrupted run "
         f"(preempted={s['preempted']}, resumed={s['resumed']})")


SCENARIOS = {
    "baseline": scenario_baseline,
    "kill_mid_anneal": scenario_kill_mid_anneal,
    "kill_pre_ack": scenario_kill_pre_ack,
    "sigkill": scenario_sigkill,
    "overload": scenario_overload,
    "disk_full": scenario_disk_full,
    "slow_client": scenario_slow_client,
    "preempt_resume": scenario_preempt_resume,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--twserved", required=True)
    ap.add_argument("--twcli", required=True)
    ap.add_argument("--yal", required=True, help="netlist to submit")
    ap.add_argument("--scenario", action="append", choices=SCENARIOS,
                    help="scenario(s) to run (default: all, in order)")
    ap.add_argument("--workdir", default=None,
                    help="scratch root (default: fresh temp dir)")
    args = ap.parse_args()

    args.work = args.workdir or tempfile.mkdtemp(prefix="tw_soak_")
    if args.workdir:
        shutil.rmtree(args.work, ignore_errors=True)
        os.makedirs(args.work)

    names = args.scenario or list(SCENARIOS)
    try:
        for name in names:
            info(f"--- scenario {name} ---")
            SCENARIOS[name](args)
    finally:
        for d in list(Daemon.live):
            d.kill()

    if not args.workdir:
        shutil.rmtree(args.work, ignore_errors=True)
    print(f"service_soak: OK ({len(names)} scenario(s))")


if __name__ == "__main__":
    main()
