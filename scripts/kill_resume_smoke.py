#!/usr/bin/env python
"""End-to-end kill/resume smoke test for durable campaign state.

Launches a real ``repro campaign`` subprocess with a durable state
directory and the hidden ``--crash-after-inference-tasks`` fault hook,
which SIGKILLs the process partway through the inference stage — the
closest in-process stand-in for the paper's node failures.  Then:

1. asserts the process died by SIGKILL (rc -9 / 137),
2. validates what survived on disk: the ledger's schema header and
   parseable ok-records, and for every ledgered-ok key a pack record of
   the ledgered length and checksum that embeds that stage and key —
   and no per-task ``*.pkl`` or temp ``*.tmp`` file anywhere,
3. re-runs the identical campaign with ``--resume`` and asserts it
   completes (rc 0) while reporting skipped, already-ledgered work.

The same drill then runs against ``--schedule streaming`` — all three
stages in one wave, killed while chains are interleaved mid-flight —
and against the two *crossed* pairs (killed under ``barrier``, resumed
under ``streaming``, and the reverse: the state directory speaks bare
per-stage keys, so it does not remember which wave plan wrote it), each
with two extra teeth: the resumed run may recompute at most one
ledgered task (only the record a torn final ledger line dropped), and
the relaxed structures it stores must be byte-identical to an
uninterrupted reference campaign's artifacts.

Run from the repo root (CI does)::

    PYTHONPATH=src python scripts/kill_resume_smoke.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pickle
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

LEDGER_SCHEMA = "repro.runstate.ledger/2"

CAMPAIGN = [
    sys.executable, "-m", "repro.cli", "campaign",
    "--species", "P_mercurii",
    "--scale", "0.002",
    "--seed", "5",
    "--feature-nodes", "2",
    "--inference-nodes", "1",
    "--relax-nodes", "1",
]


def run(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(args, capture_output=True, text=True)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def validate_state_dir(state_dir: Path) -> dict[str, int]:
    """Parse the surviving ledger + pack; return ok counts by stage."""
    ledger = state_dir / "ledger.jsonl"
    check(ledger.exists(), "ledger.jsonl survived the kill")
    lines = ledger.read_text().splitlines()
    header = json.loads(lines[0])
    check(
        header == {"schema": LEDGER_SCHEMA},
        f"ledger header declares {LEDGER_SCHEMA}",
    )
    ok_counts: dict[str, int] = {}
    ok_entries: list[dict] = []
    torn = 0
    for line in lines[1:]:
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            torn += 1  # a torn final append is exactly what replay drops
            continue
        if entry.get("ok"):
            ok_counts[entry["stage"]] = ok_counts.get(entry["stage"], 0) + 1
            ok_entries.append(entry)
    check(torn <= 1, "at most the final ledger line may be torn")
    check(sum(ok_counts.values()) > 0, f"ledgered-ok work survived: {ok_counts}")

    pack = (state_dir / "artifacts.pack").read_bytes()
    for entry in ok_entries:
        stage, key = entry["stage"], entry["key"]
        record = pack_record(pack, entry)
        check(
            len(record) == entry["length"]
            and zlib.crc32(record) == entry["crc32"],
            f"pack record length and checksum match for {stage}/{key}",
        )
        header = json.loads(record.partition(b"\n")[0])
        check(
            header == {"stage": stage, "key": key},
            f"pack record embeds its stage and key for {stage}/{key}",
        )
    strays = [
        p.name for pattern in ("*.pkl", "*.tmp") for p in state_dir.rglob(pattern)
    ]
    check(strays == [], f"no per-task or temp files in the state dir {strays}")
    return ok_counts


def pack_record(pack: bytes, entry: dict) -> bytes:
    """The bytes one ledger ok-record locates in the artifact pack."""
    return pack[entry["offset"] : entry["offset"] + entry["length"]]


def ok_entries_of(state_dir: Path) -> list[dict]:
    """Every parseable ledgered-ok record, in order."""
    entries: list[dict] = []
    for line in (state_dir / "ledger.jsonl").read_text().splitlines()[1:]:
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if entry.get("ok"):
            entries.append(entry)
    return entries


def ok_keys_of(state_dir: Path) -> list[tuple[str, str]]:
    """Every parseable ledgered-ok ``(stage, key)`` entry, in order."""
    return [(entry["stage"], entry["key"]) for entry in ok_entries_of(state_dir)]


def _canonical(value):
    """Recursively strip object-graph accidents from a stored value.

    Whether one array is a view of another, or two fields share an
    object, is an accident of the run's history (restored objects lose
    sharing) that whole-object pickles encode via the memo; the
    *content* — every byte of every array, every scalar — is what must
    survive a kill+resume bit-identically.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [
            (f.name, _canonical(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        ]
    if hasattr(value, "tobytes") and hasattr(value, "dtype"):  # ndarray
        return (str(value.dtype), value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return sorted((k, _canonical(v)) for k, v in value.items())
    return value


def artifact_value_bytes(state_dir: Path, stage: str, key: str) -> bytes:
    """A canonical byte fingerprint of one stored artifact's value."""
    entry = [
        e for e in ok_entries_of(state_dir) if (e["stage"], e["key"]) == (stage, key)
    ][-1]
    record = pack_record((state_dir / "artifacts.pack").read_bytes(), entry)
    return pickle.dumps(_canonical(pickle.loads(record.partition(b"\n")[2])))


def kill_resume_scenario(
    workdir: Path,
    crash_after: int,
    kill_schedule: str,
    resume_schedule: str,
    reference_dir: Path,
) -> None:
    """Kill a campaign under one schedule mid-flight, resume it under
    another (or the same): resume must not recompute, and must store the
    relax artifacts ``reference_dir``'s uninterrupted campaign stored."""
    pair = f"{kill_schedule}->{resume_schedule}"
    state_dir = workdir / f"state-{kill_schedule}-{resume_schedule}"

    print(
        f"[{pair}] {kill_schedule} campaign with SIGKILL after "
        f"{crash_after} inference tasks"
    )
    crashed = run(
        CAMPAIGN
        + ["--schedule", kill_schedule,
           "--state-dir", str(state_dir),
           "--crash-after-inference-tasks", str(crash_after)]
    )
    check(
        crashed.returncode in (-9, 137),
        f"{kill_schedule} campaign was SIGKILLed (rc={crashed.returncode})",
    )
    ok_counts = validate_state_dir(state_dir)
    check(
        ok_counts.get("inference", 0) >= crash_after,
        f"crash-trigger records were durable: {ok_counts}",
    )
    before = ok_keys_of(state_dir)

    print(f"[{pair}] resuming it under --schedule {resume_schedule}")
    resumed = run(
        CAMPAIGN
        + ["--schedule", resume_schedule,
           "--state-dir", str(state_dir), "--resume"]
    )
    check(resumed.returncode == 0, f"resume completed (rc={resumed.returncode})")
    check("resume   : skipped" in resumed.stdout, "resume reported skipped work")
    check(
        ("streaming:" in resumed.stdout) == (resume_schedule == "streaming"),
        "resumed run reported its own schedule's summary",
    )
    after = ok_keys_of(state_dir)
    # Every pre-kill ok record was skipped on resume, not recomputed —
    # except at most the one task a torn final ledger line dropped.
    recomputed = [k for k in set(before) if after.count(k) > before.count(k)]
    check(
        len(recomputed) <= 1,
        f"resume recomputed at most one ledgered task ({recomputed})",
    )
    check(len(set(after)) > len(set(before)), "resume extended the ledger")

    print(f"[{pair}] comparing against the uninterrupted reference campaign")
    relax_keys = sorted(k for stage, k in set(after) if stage == "relax")
    check(bool(relax_keys), "resumed campaign stored relax artifacts")
    for key in relax_keys:
        check(
            artifact_value_bytes(state_dir, "relax", key)
            == artifact_value_bytes(reference_dir, "relax", key),
            f"relax artifact byte-identical after kill+resume: {key}",
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--crash-after", type=int, default=3,
        help="successful inference tasks before the injected SIGKILL",
    )
    parser.add_argument(
        "--workdir", type=Path, default=None,
        help="state directory parent (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)
    if args.workdir is not None:  # the caller's directory is kept
        return smoke(args.workdir, args.crash_after)
    with tempfile.TemporaryDirectory(prefix="kill-resume-") as workdir:
        return smoke(Path(workdir), args.crash_after)


def smoke(workdir: Path, crash_after: int) -> int:
    """Kill, validate, resume and compare, all under ``workdir``."""
    state_dir = workdir / "campaign-state"

    print(f"[1/3] campaign with SIGKILL after {crash_after} inference tasks")
    crashed = run(
        CAMPAIGN
        + ["--state-dir", str(state_dir),
           "--crash-after-inference-tasks", str(crash_after)]
    )
    check(
        crashed.returncode in (-9, 137),
        f"campaign was SIGKILLed (rc={crashed.returncode})",
    )

    print("[2/3] validating surviving state")
    ok_counts = validate_state_dir(state_dir)
    check(
        ok_counts.get("inference", 0) >= crash_after,
        f"crash-trigger records were durable before death: {ok_counts}",
    )

    print("[3/3] resuming the killed campaign")
    resumed = run(CAMPAIGN + ["--state-dir", str(state_dir), "--resume"])
    check(resumed.returncode == 0, f"resume completed (rc={resumed.returncode})")
    check("resume   : skipped" in resumed.stdout, "resume reported skipped work")
    check("quality  :" in resumed.stdout, "resumed campaign reached the summary")

    final_counts = validate_state_dir(state_dir)
    check(
        final_counts.get("inference", 0) > ok_counts.get("inference", 0),
        "resume extended the ledger instead of rewriting it",
    )

    reference_dir = workdir / "reference-state"
    print("[reference] uninterrupted streaming campaign")
    reference = run(
        CAMPAIGN + ["--schedule", "streaming", "--state-dir", str(reference_dir)]
    )
    check(
        reference.returncode == 0,
        f"reference campaign completed (rc={reference.returncode})",
    )
    for kill_schedule, resume_schedule in (
        ("streaming", "streaming"),
        ("barrier", "streaming"),
        ("streaming", "barrier"),
    ):
        kill_resume_scenario(
            workdir,
            crash_after,
            kill_schedule,
            resume_schedule,
            reference_dir,
        )
    print("kill/resume smoke ok:", final_counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
