"""Output checks of one benchmark run.

Every check compares the program's output either with a fact this
benchmark computed itself from the generated inputs (``prepare.py``) or
with a property the method must have.  None compares with a stored copy
of an earlier output.  Each function returns a list of failure messages;
an empty list means the check passed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

TABLE_TITLE = "Tables 1-3 combined"


def parse_table1(stdout: str) -> Dict[str, Tuple[int, int, int]]:
    """``{scenario: (#Inst, fast, slow)}`` from ``repro study``'s output."""
    lines = stdout.splitlines()
    try:
        start = lines.index(TABLE_TITLE)
    except ValueError:
        return {}
    rows = {}
    # Title, header and rule precede the rows; a blank line ends them.
    for line in lines[start + 3:]:
        if not line.strip():
            break
        cells = line.split()
        rows[cells[0]] = (int(cells[1]), int(cells[2]), int(cells[3]))
    return rows


def check_counts(expected: dict, facts: dict) -> List[str]:
    failures = []
    for name in ("streams", "events"):
        if facts[name] != expected[name]:
            failures.append(f"{name}: program counted {facts[name]}, inputs hold {expected[name]}")
    return failures


def check_table1(expected: dict, stdout: str) -> List[str]:
    """Table 1 classes against each instance's duration and T_fast/T_slow."""
    rows = parse_table1(stdout)
    want = {name: tuple(row) for name, row in expected["table1"].items()}
    failures = [
        f"Table 1 {name}: program {rows.get(name)}, recomputed {row}"
        for name, row in sorted(want.items())
        if rows.get(name) != row
    ]
    failures += [f"Table 1 has unexpected scenario {name}" for name in sorted(set(rows) - set(want))]
    total = sum(row[0] for row in rows.values())
    if total != expected["instances"]:
        failures.append(f"Table 1 counts {total} instances, inputs hold {expected['instances']}")
    return failures


def check_impact(expected: dict, facts: dict) -> List[str]:
    failures = []
    if facts["d_scn"] != expected["d_scn"]:
        failures.append(f"D_scn: program {facts['d_scn']}, recomputed {expected['d_scn']}")
    if facts["d_waitdist"] > facts["d_wait"]:
        failures.append(f"D_waitdist {facts['d_waitdist']} exceeds D_wait {facts['d_wait']}")
    return failures


def check_ranking(facts: dict) -> List[str]:
    """Patterns are ranked by non-increasing ``P.C / P.N``."""
    failures = []
    for scenario, patterns in sorted(facts["pattern_costs"].items()):
        means = [cost / count for cost, count in patterns]
        for rank in range(1, len(means)):
            if means[rank] > means[rank - 1]:
                failures.append(
                    f"{scenario}: pattern #{rank + 1} (P.C/P.N {means[rank]:.1f}) ranks "
                    f"below #{rank} ({means[rank - 1]:.1f})"
                )
                break
    return failures


def check_store(expected: dict, facts: dict) -> List[str]:
    """Every old trace is a store hit and every new one a miss."""
    failures = []
    if facts["store_hits"] != expected["store_old"]:
        failures.append(f"store hits {facts['store_hits']}, old traces {expected['store_old']}")
    if facts["store_misses"] != expected["store_new"]:
        failures.append(f"store misses {facts['store_misses']}, new traces {expected['store_new']}")
    return failures


def check_explore(expected: dict, facts: dict) -> List[str]:
    failures = []
    cells = facts["cells"]
    if len(cells) != expected["cells"]:
        failures.append(f"{len(cells)} explore cells, grid has {expected['cells']}")
    for scenario, policy, seed, instances in cells:
        if instances != expected["instances_per_cell"]:
            failures.append(
                f"cell {scenario}/{policy}/{seed}: {instances} instances, "
                f"expected repeats x intensities = {expected['instances_per_cell']}"
            )
    verdicts = dict(facts["verdicts"])
    if sorted(verdicts) != sorted(expected["pathologies"]):
        failures.append(f"oracle judged {sorted(verdicts)}, planted {sorted(expected['pathologies'])}")
    failures += [f"oracle missed the planted cause of {name}" for name, ok in sorted(verdicts.items()) if not ok]
    if not facts["negative_control_clean"]:
        failures.append("oracle negative control found a planted signature")
    return failures


def check_repetitions(repetitions: List[dict]) -> List[str]:
    """Every repetition ran, exited 0 and repeated the first one exactly."""
    failures = []
    first = repetitions[0]
    for number, repetition in enumerate(repetitions, start=1):
        if "error" in repetition:
            failures.append(f"repetition {number} raised:\n{repetition['error']}")
            continue
        if repetition["exit_code"] != 0:
            failures.append(f"repetition {number} exited {repetition['exit_code']}")
        for key in ("digest", "events", "attempted", "failed"):
            if repetition[key] != first.get(key):
                failures.append(f"repetition {number}: {key} differs from repetition 1")
    return failures


def check_references(first: dict, references: List[dict]) -> List[str]:
    """Runs that must render the same tables as the timed run."""
    failures = []
    for reference in references:
        if "error" in reference:
            failures.append(f"{reference['label']} run raised:\n{reference['error']}")
        elif reference["stdout"] != first["stdout"]:
            failures.append(f"{reference['label']} run rendered different tables")
    return failures


def check_run(workload, expected: dict, measured: dict) -> List[str]:
    """All checks of one run of ``workload``."""
    repetitions = measured["repetitions"]
    failures = check_repetitions(repetitions)
    first = repetitions[0]
    if "error" in first:
        return failures
    facts, stdout = first["facts"], first["stdout"]
    if workload.kind == "explore":
        return failures + check_explore(expected, facts)
    failures += check_counts(expected, facts)
    failures += check_table1(expected, stdout)
    failures += check_impact(expected, facts)
    failures += check_ranking(facts)
    if workload.uses_store:
        failures += check_store(expected, facts)
    failures += check_references(first, measured["references"])
    return failures
