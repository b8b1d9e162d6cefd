"""Self-test of the benchmark's output checks: every check must reject a
corrupted output, so that none can pass on empty or damaged data.

    python3 perfbench/selftest.py [--seed N]

Runs one round of each workload, confirms that each op's check accepts the
genuine output, then feeds it three corruptions: one perturbed value (tried
in the first and last column of every kind of column), a dropped data row,
and an empty output.  Exits 1 if any corruption is accepted.
"""

import argparse
import re
import shutil
import sys

import run
import workloads


def _perturb(value: str) -> str:
    v = float(value)
    return repr(v + 1e-5 * max(1.0, abs(v)))


def _value_columns(header: list) -> list:
    """First and last column of each kind (name without its trailing index)."""
    kinds = {}
    for j, name in enumerate(header):
        kinds.setdefault(re.sub(r"_?[0-9]+$", "", name).split("_k")[0], []).append(j)
    return sorted({cols[0] for cols in kinds.values()} | {cols[-1] for cols in kinds.values()})


def corruptions(text: str, is_table: bool):
    """(label, corrupted text) pairs for one genuine output."""
    lines = text.splitlines(keepends=True)
    yield "empty", ""
    if is_table:  # verify-all: check lines, then a summary line
        body, tail = lines[:-1], lines[-1:]
        mid = len(body) // 2
        yield "dropped row", "".join(body[:mid] + body[mid + 1 :] + tail)
        fields = body[mid].rstrip("\n").split(" ")
        for j in (2, 3):
            key, value = fields[j].split("=")
            changed = fields[:j] + [f"{key}={_perturb(value)}"] + fields[j + 1 :]
            yield f"perturbed {key}", "".join(body[:mid] + [" ".join(changed) + "\n"] + body[mid + 1 :] + tail)
        return
    header, rows = lines[0], lines[1:]
    mid = len(rows) // 2
    yield "dropped row", "".join([header] + rows[:mid] + rows[mid + 1 :])
    names = header.rstrip("\n").split(",")
    for j in _value_columns(names):
        fields = rows[mid].rstrip("\n").split(",")
        fields[j] = _perturb(fields[j])
        yield f"perturbed {names[j]}", "".join([header] + rows[:mid] + [",".join(fields) + "\n"] + rows[mid + 1 :])


def rejects(op, rc, stdout, text) -> bool:
    _, _, error = run.evaluate(op, rc, stdout, text)
    return bool(error)


def selftest(seed: int) -> int:
    cli = run.import_program()
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / f"selftest-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    accepted = tried = 0
    try:
        for workload in workloads.WORKLOADS:
            for op in workloads.build(workload, seed, workdir):
                _, rc, stdout, text = run.execute(cli, op)
                if rejects(op, rc, stdout, text):
                    verdict = "known fault, rejected" if op.known_fault else "GENUINE OUTPUT REJECTED"
                    accepted += not op.known_fault
                    print(f"{workload} {op.name}: {verdict}")
                    continue
                labels = []
                for label, bad in corruptions(text, op.output is None):
                    bad_stdout = bad if op.output is None else stdout
                    labels.append(label)
                    if not rejects(op, rc, bad_stdout, bad):
                        accepted += 1
                        print(f"{workload} {op.name}: ACCEPTED {label}")
                tried += len(labels)
                # restore the state a later op's check reads (RK4 reference)
                run.evaluate(op, rc, stdout, text)
                print(f"{workload} {op.name}: genuine accepted; tried {', '.join(labels)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{tried} corruptions tried, {accepted} accepted")
    return 1 if accepted else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    sys.exit(selftest(parser.parse_args().seed))
