"""Output checks: the paper's numbers and properties the method must have.

Every check takes a command's stdout (and exit status) and raises
:class:`CheckError` when the output is wrong; on success it returns the
:class:`Work` the output reports, which the throughput metrics count.
No check compares against a saved copy of earlier output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

#: Table 5 of the paper, "Total Unique" row: (extracted, false positives).
PAPER_TABLE5 = {"SD": (32, 3), "CPD": (26, 1), "CCD": (6, 1)}
PAPER_UNIQUE_DEPS = 64
#: ConDocCk's inaccurate documentations (paper section 4).
PAPER_DOC_ISSUES = 12
#: Table 3: bugs per usage scenario, in table order, and their total.
PAPER_TABLE3 = (13, 1, 17, 36)
PAPER_BUGS = 67
#: ConBugCk's stages, in pipeline order.
STAGES = ("mkfs", "mount", "use", "fsck-clean")

_KEY = re.compile(r"^(SD|CPD|CCD)\.\S+:\S+")


class CheckError(AssertionError):
    """A program output failed a correctness check."""


@dataclass
class Work:
    """What one command did, as its own stage table and campaign totals
    report it."""

    #: Configurations driven into mkfs.
    configs: int = 0
    #: Configurations that passed the use stage and so reached fsck.
    fsck: int = 0
    #: Raw sampler draws, and of those how many went through the
    #: feasibility filter and how many it kept.
    draws: int = 0
    filtered: int = 0
    kept: int = 0
    digest: Optional[str] = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _leading_int(cell: str) -> int:
    match = re.match(r"\s*(\d+)", cell)
    return int(match.group(1)) if match else 0


def _stage_rows(out: str, columns: int) -> Dict[str, List[int]]:
    rows: Dict[str, List[int]] = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == columns + 1 and fields[0] in STAGES \
                and all(f.isdigit() for f in fields[1:]):
            rows[fields[0]] = [int(f) for f in fields[1:]]
    _require(set(rows) == set(STAGES),
             f"stage table incomplete: {sorted(rows)}")
    return rows


def _stage_column(rows: Dict[str, List[int]], column: int,
                  driven: int, label: str) -> List[int]:
    counts = [rows[stage][column] for stage in STAGES]
    _require(all(a >= b for a, b in zip([driven] + counts, counts)),
             f"{label} stage counts {counts} of {driven} configs are not "
             f"non-increasing from mkfs to fsck-clean")
    return counts


def check_extract(out: str, rc: int) -> Work:
    """repro-extract: Table 5's totals."""
    _require(rc == 0, f"repro-extract exited {rc}")
    total = [line for line in out.splitlines()
             if line.startswith("Total Unique")]
    _require(len(total) == 1, "no 'Total Unique' row in Table 5")
    cells = [cell.strip() for cell in total[0].split("|")]
    _require(len(cells) == 7, f"Table 5 total row has {len(cells)} cells")
    for index, category in enumerate(("SD", "CPD", "CCD")):
        got = (_leading_int(cells[1 + 2 * index]),
               _leading_int(cells[2 + 2 * index]))
        _require(got == PAPER_TABLE5[category],
                 f"Table 5 {category}: extracted/FP {got}, paper "
                 f"{PAPER_TABLE5[category]}")
    _require(f"Overall: {PAPER_UNIQUE_DEPS} unique dependencies" in out,
             f"Table 5 does not report {PAPER_UNIQUE_DEPS} unique "
             f"dependencies")
    return Work()


def dependency_keys(out: str) -> Set[str]:
    """The dependency keys an ``extract --list`` output prints."""
    return {line.strip() for line in out.splitlines()
            if _KEY.match(line.strip())}


def check_overlay(out: str, rc: int, baseline: Set[str],
                  removed: str, added: str) -> Work:
    """An extraction over an edited corpus: Table 5 stays whole and the
    key list differs from ``baseline`` by exactly the edited bound."""
    _require(rc == 0, f"overlay extract exited {rc}")
    keys = dependency_keys(out)
    _require(len(keys) == PAPER_UNIQUE_DEPS,
             f"overlay extract lists {len(keys)} keys")
    _require(keys - baseline == {added} and baseline - keys == {removed},
             f"overlay extract changed {sorted(baseline ^ keys)}, "
             f"expected only {removed} -> {added}")
    return Work()


def check_condocck(out: str, rc: int) -> Work:
    """repro-condocck: the 12 inaccurate documentations (exit 1)."""
    issues = [line for line in out.splitlines()
              if re.match(r"^\[(incorrect|missing)\] ", line)]
    _require(len(issues) == PAPER_DOC_ISSUES,
             f"condocck listed {len(issues)} issues, paper "
             f"{PAPER_DOC_ISSUES}")
    _require(f"{PAPER_DOC_ISSUES} inaccurate documentations"
             in out.strip().splitlines()[-1],
             "condocck summary line missing")
    _require(rc == 1, f"condocck exited {rc} with issues found")
    return Work()


def _check_corruption(out: str, rc: int) -> List[str]:
    bad = [line for line in out.splitlines()
           if line.startswith("BAD HANDLING")]
    _require(any("mke2fs.sparse_super2" in line and "resize2fs" in line
                 for line in bad),
             "no Figure-1 sparse_super2 corruption reported")
    _require(all("sparse_super2" in line for line in bad),
             "a bad handling other than sparse_super2 was reported")
    _require(rc == 1, f"conhandleck exited {rc} with a corruption found")
    return bad


def check_conhandleck(out: str, rc: int) -> Work:
    """repro-conhandleck over the extracted dependencies."""
    _check_corruption(out, rc)
    outcomes = dict(re.findall(r"^\s*([\w-]+): (\d+)$", out, re.M))
    _require(int(outcomes.get("corruption", 0)) >= 1,
             "outcome table reports no corruption")
    return Work()


def check_violation_campaign(out: str, rc: int, budget: int) -> Work:
    """repro-conhandleck --budget N: every draw lands in one outcome."""
    _check_corruption(out, rc)
    match = re.search(r"^campaign:\s+(\d+) violation draws", out, re.M)
    _require(match is not None, "no campaign line")
    draws = int(match.group(1))
    _require(draws == budget, f"{draws} draws for budget {budget}")
    outcomes = re.findall(r"^\s*([\w-]+): (\d+)$", out, re.M)
    _require(sum(int(n) for _, n in outcomes) == draws,
             f"outcome counts {outcomes} do not sum to {draws} draws")
    return Work(configs=draws, draws=draws, digest=_digest(out))


def check_conbugck(out: str, rc: int, count: int) -> Work:
    """repro-conbugck -n N: guided vs naive stage table."""
    _require(rc == 0, f"conbugck exited {rc}")
    rows = _stage_rows(out, 2)
    guided = _stage_column(rows, 0, count, "guided")
    naive = _stage_column(rows, 1, count, "naive")
    _require(guided[-1] > naive[-1],
             f"guided fsck-clean {guided[-1]} does not exceed naive "
             f"{naive[-1]}")
    return Work(configs=2 * count, fsck=guided[2] + naive[2])


def _digest(out: str) -> str:
    match = re.search(r"^digest:\s+([0-9a-f]{64})$", out, re.M)
    _require(match is not None, "no campaign digest")
    return match.group(1)


def check_sampled(out: str, rc: int, budget: int, feasible: bool) -> Work:
    """repro-conbugck --sample: every draw is driven or skipped, and
    every driven config ends either fsck-clean or as a failure."""
    _require(rc == 0, f"sampled conbugck exited {rc}")
    match = re.search(r"^campaign:\s+(\d+) configs in \d+ shard\(s\)"
                      r"(?:, (\d+) infeasible skipped)?$", out, re.M)
    _require(match is not None, "no campaign line")
    driven, skipped = int(match.group(1)), int(match.group(2) or 0)
    _require(driven + skipped == budget,
             f"{driven} driven + {skipped} skipped != budget {budget}")
    _require(feasible or skipped == 0,
             "a plain random campaign skipped configs")
    counts = _stage_column(_stage_rows(out, 1), 0, driven, "sampled")
    failures = re.search(r"^failures:\s+(\d+)", out, re.M)
    _require(failures is not None, "no failures line")
    _require(int(failures.group(1)) + counts[-1] == driven,
             f"{failures.group(1)} failures + {counts[-1]} fsck-clean != "
             f"{driven} configs")
    return Work(configs=driven, fsck=counts[2], draws=budget,
                filtered=budget if feasible else 0,
                kept=driven if feasible else 0, digest=_digest(out))


def check_study(out: str, rc: int) -> Work:
    """repro-study: Table 3's 67 bugs split 13/1/17/36."""
    _require(rc == 0, f"repro-study exited {rc}")
    section = out.split("Table 3:", 1)
    _require(len(section) == 2, "no Table 3")
    table = section[1].split("\n\n", 1)[0]
    rows = [line.split("|") for line in table.splitlines()
            if line.startswith("mke2fs") or line.startswith("Total")]
    bugs = [_leading_int(row[1]) for row in rows if len(row) > 1]
    _require(tuple(bugs[:4]) == PAPER_TABLE3 and bugs[4:5] == [PAPER_BUGS],
             f"Table 3 bugs {bugs}, paper {list(PAPER_TABLE3)} and "
             f"{PAPER_BUGS}")
    return Work()


def check_same(label: str, got: object, expected: object) -> None:
    """Two values that must be equal (digests, run ids, result bytes)."""
    _require(got == expected, f"{label}: {got!r} != {expected!r}")


def check_dedup(submitted: Dict[str, object], original: str) -> None:
    """A duplicate submit names the original run and says so."""
    run = submitted.get("run") or {}
    check_same("duplicate run id", run.get("run_id"), original)
    check_same("duplicate flagged", submitted.get("deduplicated"), True)
