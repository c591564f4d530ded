"""Seeded synthetic event log for the benchmark workloads.

Cases follow a fixed Markov chain over six activities in which every
activity has one dominant successor. Cases arrive in alternating busy and
quiet periods; the regime switches the dominant successor of ``check``
(``approve`` when quiet, ``escalate`` when busy), as in the planted-signal
acceptance test. Only the window features can see the regime, so both the
intra-case and the inter-case features carry signal.

The log holds exactly ``n_events`` events whatever the seed (the last case
is cut short to fit), so the work per run does not depend on the seed.

    python3 perfbench/synth.py --seed 7 --events 2000 --out log.csv
"""

from __future__ import annotations

import argparse
import csv
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

BASE = datetime(2023, 1, 1, tzinfo=timezone.utc)
DOMINANT_P = 0.99
MAX_CASE_LEN = 8
BLOCK = 3  # cases per busy or quiet period

# Dominant successor per activity in the quiet regime; None ends the case.
CHAIN = {
    "register": "check",
    "check": "approve",
    "approve": "notify",
    "escalate": "notify",
    "notify": "close",
    "close": None,
}
BUSY_SWITCH = ("check", "escalate")
RESOURCES = {act: f"{act[:3]}_desk" for act in CHAIN}

# Seconds between case arrivals per regime, and between events of a case.
ARRIVAL = {"busy": (20.0, 60.0), "quiet": (4000.0, 6000.0)}
STEP = (200.0, 400.0)


def _next_activity(
    rng: random.Random, activity: str, busy: bool, dominant_p: float,
) -> str | None:
    dominant = CHAIN[activity]
    if busy and activity == BUSY_SWITCH[0]:
        dominant = BUSY_SWITCH[1]
    if dominant is None or rng.random() < dominant_p:
        return dominant
    others = [a for a in CHAIN if a not in ("register", activity, dominant)]
    return rng.choice(others)


def generate(
    seed: int | str, n_events: int, dominant_p: float = DOMINANT_P,
) -> list[tuple[str, str, str, str]]:
    """Rows (case_id, activity, ISO timestamp, resource) of a seeded log.

    Each step takes the dominant successor with probability ``dominant_p``.
    Regimes alternate every BLOCK cases, starting busy.
    """
    if n_events < 1:
        raise ValueError("n_events must be positive")
    rng = random.Random(seed)
    rows: list[tuple[str, str, str, str]] = []
    start = 0.0
    case = 0
    while len(rows) < n_events:
        busy = (case // BLOCK) % 2 == 0
        start += rng.uniform(*ARRIVAL["busy" if busy else "quiet"])
        t = start
        activity = "register"
        for _ in range(MAX_CASE_LEN):
            if activity is None or len(rows) == n_events:
                break
            stamp = (BASE + timedelta(seconds=round(t))).isoformat()
            rows.append((f"case{case:05d}", activity, stamp, RESOURCES[activity]))
            t += rng.uniform(*STEP)
            activity = _next_activity(rng, activity, busy, dominant_p)
        case += 1
    return rows


def write_csv(rows, path: str | Path) -> None:
    """Write rows in the canonical CSV layout that ``icppm.eventlog`` parses."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("case_id", "activity", "timestamp", "resource"))
        writer.writerows(rows)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--events", type=int, required=True)
    parser.add_argument("--dominant-p", type=float, default=DOMINANT_P)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_csv(generate(args.seed, args.events, args.dominant_p), args.out)


if __name__ == "__main__":
    main()
