import io
import json

from f2cbench import compare


def result(workload, **metrics):
    return {
        "workload": workload,
        "end_to_end": {
            name: {"value": value, "unit": "ms", "better": better, "bound": bound, **({"runs": runs} if runs else {})}
            for name, (value, better, bound, runs) in metrics.items()
        },
        "detail": {},
    }


def write(tmp_path, name, *results):
    path = tmp_path / name
    path.write_text(json.dumps({"schema": "f2cbench/1", "workloads": {r["workload"]: r for r in results}}))
    return str(path)


def rows(text):
    return {tuple(line.split()[:2]): line.split()[-1] for line in text.splitlines()[1:]}


def test_verdicts_and_exit_code(tmp_path):
    first = write(
        tmp_path, "a.json",
        result(
            "w1",
            latency=(10.0, "lower", 0.10, None),
            rate=(100.0, "higher", 0.10, None),
            steady=(10.0, "lower", 0.10, [9.9, 10.0, 10.1, 10.0]),
            noisy=(10.0, "lower", 0.10, [8.0, 10.0, 12.0, 10.0]),
            apart=(10.0, "lower", 0.10, [8.0, 10.0, 12.0, 10.0]),
        ),
    )
    second = write(
        tmp_path, "b.json",
        result(
            "w1",
            latency=(11.5, "lower", 0.10, None),      # 15% slower: regressed
            rate=(95.0, "higher", 0.10, None),        # 5% lower: ok
            steady=(10.5, "lower", 0.10, [10.4, 10.5, 10.6, 10.5]),   # within bound: ok
            noisy=(11.5, "lower", 0.10, [9.0, 11.5, 13.0, 11.5]),     # wide and overlapping
            apart=(20.0, "lower", 0.10, [18.0, 20.0, 22.0, 20.0]),    # wide but every run worse
        ),
    )
    out = io.StringIO()
    assert compare.compare(first, second, out=out) == 1
    assert rows(out.getvalue()) == {
        ("w1", "latency"): "regressed",
        ("w1", "rate"): "ok",
        ("w1", "steady"): "ok",
        ("w1", "noisy"): "unresolved",
        ("w1", "apart"): "regressed",
    }
    # Same file on both sides: nothing moves, exit 0.
    out = io.StringIO()
    assert compare.compare(first, first, out=out) == 0
    assert set(rows(out.getvalue()).values()) <= {"ok", "unresolved"}


def test_a_single_workload_result_file_is_accepted(tmp_path):
    single = tmp_path / "one.json"
    single.write_text(json.dumps(result("w1", latency=(10.0, "lower", 0.1, None))))
    out = io.StringIO()
    assert compare.compare(str(single), str(single), out=out) == 0
    assert rows(out.getvalue()) == {("w1", "latency"): "ok"}


def test_better_direction():
    assert compare.worse_by(100.0, 90.0, "higher") == 0.1
    assert compare.worse_by(100.0, 90.0, "lower") == -0.1
    assert compare.worse_by(0.0, 0.0, "lower") == 0.0
