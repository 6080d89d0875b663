"""The ``cli`` and ``campaign`` workloads: closed loops of whole
rotations of program commands, one fresh process at a time."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import checks
from bench import SETUPS, Bench, Window
from checks import CheckError, Work


@dataclass
class Command:
    """One program command of a rotation and the check of its output."""

    kind: str
    entry: str
    args: List[str]
    check: Callable[[str, int], Work]


def derived_seeds(seed: int, count: int) -> List[int]:
    """``count`` command seeds drawn from the benchmark seed."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def cli_rotation(seed: int) -> List[Command]:
    """The paper's one-shot commands.  ``repro-extract`` runs twice, as
    the most common command, which also puts the median of the seven
    inside one command's spread rather than between two."""
    (conbugck_seed,) = derived_seeds(seed, 1)
    return [
        Command("extract", "main_extract", [], checks.check_extract),
        Command("condocck", "main_condocck", [], checks.check_condocck),
        Command("extract-cold", "main_extract", ["--cold"],
                checks.check_extract),
        Command("conhandleck", "main_conhandleck", [],
                checks.check_conhandleck),
        Command("extract", "main_extract", [], checks.check_extract),
        Command("conbugck", "main_conbugck", ["--seed", str(conbugck_seed)],
                lambda out, rc: checks.check_conbugck(out, rc, 30)),
        Command("study", "main_study", [], checks.check_study),
    ]


#: The sampled campaign whose digest is re-run with two shards.
SHARD_CHECK_KIND = "random-5000"


def campaign_rotation(seed: int) -> List[Command]:
    """Guided drives that go deep, random draws mkfs mostly rejects,
    constraint-filtered draws, and violation draws.  The violation
    campaign, the shortest, runs twice with two seeds, which puts the
    median of the five on the random campaign rather than between two
    commands."""
    s1, s2, s3, s4, s5 = derived_seeds(seed, 5)
    return [
        Command("guided-1000", "main_conbugck",
                ["-n", "1000", "--seed", str(s1)],
                lambda out, rc: checks.check_conbugck(out, rc, 1000)),
        Command(SHARD_CHECK_KIND, "main_conbugck",
                ["--sample", "random", "--budget", "5000", "--seed", str(s2)],
                lambda out, rc: checks.check_sampled(out, rc, 5000, False)),
        Command("feasible-20000", "main_conbugck",
                ["--sample", "random+feasible", "--budget", "20000",
                 "--seed", str(s3)],
                lambda out, rc: checks.check_sampled(out, rc, 20000, True)),
    ] + [
        Command("violate-2000", "main_conhandleck",
                ["--budget", "2000", "--seed", str(violate_seed)],
                lambda out, rc: checks.check_violation_campaign(out, rc, 2000))
        for violate_seed in (s4, s5)
    ]


class CommandWorkload:
    """Set-up, timed windows and checks for one command rotation."""

    def __init__(self, bench: Bench, rotation: List[Command]) -> None:
        self.bench = bench
        self.rotation = rotation
        self.errors: List[str] = []
        self.digests: Dict[str, str] = {}

    def execute(self, command: Command, window: Optional[Window]) -> None:
        done = self.bench.run(command.entry, command.args)
        try:
            work = command.check(done.out, done.rc)
        except CheckError as exc:
            self.errors.append(f"{command.kind}: {exc}; stderr: "
                               f"{done.err.strip()[-300:]}")
            work = Work()
            failed = True
        else:
            failed = False
            if work.digest:
                self.digests[command.kind] = work.digest
        if window is not None:
            window.walls.append(done.wall)
            window.works.append(work)
            window.tally.add(command.kind, failed=failed,
                             label="wrong output" if failed else "",
                             seconds=done.wall)

    def setup(self) -> float:
        """Fresh cache, filled by one extraction, then one untimed
        warm-up rotation.  Returns its wall seconds."""
        started = time.perf_counter()
        self.bench.fresh_dir("cache")
        self.execute(Command("fill", "main_extract", [],
                             checks.check_extract), None)
        for command in self.rotation:
            self.execute(command, None)
        return time.perf_counter() - started

    def setups(self, count: int = SETUPS) -> List[float]:
        return [self.setup() for _ in range(count)]

    def window(self) -> Window:
        window = Window()

        def rotation(_index: int) -> None:
            for command in self.rotation:
                self.execute(command, window)

        window.run(self.bench.seconds, rotation)
        return window

    def shard_check(self) -> None:
        """The 1-shard digest of the rotation's random campaign must be
        the digest of the same campaign in two shards."""
        for command in self.rotation:
            if command.kind != SHARD_CHECK_KIND:
                continue
            done = self.bench.run(command.entry,
                                  command.args + ["--shards", "2"])
            try:
                work = command.check(done.out, done.rc)
                checks.check_same("2-shard digest", work.digest,
                                  self.digests.get(command.kind))
            except CheckError as exc:
                self.errors.append(f"shard check: {exc}")


def sampling_metrics(window: Window) -> Dict[str, float]:
    """Sampler draws per operation and the feasibility filter's yield,
    as the campaigns' own totals report them."""
    filtered = window.total("filtered")
    return {
        "sampling.draws": window.total("draws") / max(window.tally.attempted, 1),
        "sampling.feasible_ratio":
            window.total("kept") / filtered if filtered else 0.0,
    }
