"""The command-line interface."""

import pytest

from repro.cli import main


def test_datasets_lists_all_six(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    for name in ("jackson", "miami", "tucson", "dashcam", "park", "airport"):
        assert name in out


def test_focus_command(capsys):
    assert main(["focus", "--selectivity", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "r = 3" in out


def test_configure_command(capsys):
    assert main(["configure", "--operators", "Motion,License,OCR"]) == 0
    out = capsys.readouterr().out
    assert "SFg" in out
    assert "ingest cost" in out


def test_configure_with_storage_budget(capsys):
    assert main([
        "configure", "--operators", "Motion,License",
        "--storage-budget-tb", "1.0",
    ]) == 0
    out = capsys.readouterr().out
    assert "decay factor" in out


def test_query_command(capsys):
    assert main([
        "query", "B", "--operators", "Motion,License,OCR",
        "--dataset", "dashcam", "--accuracy", "0.8",
    ]) == 0
    out = capsys.readouterr().out
    assert "x realtime" in out
    assert "Motion" in out


def test_ingest_and_execute_roundtrip(tmp_path, capsys):
    workdir = str(tmp_path / "store")
    assert main([
        "ingest", "--operators", "Motion,License,OCR",
        "--workdir", workdir, "--dataset", "dashcam", "--segments", "4",
    ]) == 0
    assert main([
        "execute", "B", "--operators", "Motion,License,OCR",
        "--workdir", workdir, "--dataset", "dashcam",
        "--accuracy", "0.8", "--t0", "0", "--t1", "32",
    ]) == 0
    out = capsys.readouterr().out
    assert "ingested 4 segments" in out
    assert "executed query" in out


def test_trace_summary_and_metrics_commands(tmp_path, capsys):
    workdir = str(tmp_path / "store")
    assert main([
        "ingest", "--operators", "Motion,License,OCR",
        "--workdir", workdir, "--dataset", "dashcam", "--segments", "4",
    ]) == 0
    assert main([
        "trace", "--operators", "Motion,License,OCR",
        "--workdir", workdir, "--dataset", "dashcam", "--query", "B",
        "--accuracy", "0.8", "--t1", "32", "--queries", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "bound by" in out  # critical-path table
    assert "peak wait" in out  # queue-depth table
    assert "executor.runs" in out  # metrics table
    assert main([
        "metrics", "--operators", "Motion,License,OCR",
        "--workdir", workdir, "--dataset", "dashcam", "--query", "B",
        "--accuracy", "0.8", "--t1", "32", "--queries", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "query.latency_seconds" in out
    assert "p99" in out


def test_trace_export_command(tmp_path, capsys):
    workdir = str(tmp_path / "store")
    outdir = tmp_path / "bundle"
    assert main([
        "ingest", "--operators", "Motion,License,OCR",
        "--workdir", workdir, "--dataset", "dashcam", "--segments", "4",
    ]) == 0
    assert main([
        "trace", "export", "--operators", "Motion,License,OCR",
        "--workdir", workdir, "--dataset", "dashcam", "--query", "B",
        "--accuracy", "0.8", "--t1", "32", "--queries", "2",
        "--outdir", str(outdir),
    ]) == 0
    out = capsys.readouterr().out
    assert "chrome_trace" in out
    assert (outdir / "chrome_trace.json").exists()
    # The columnar tables landed in whichever format the host supports.
    assert any(p.name.startswith("trace_events.")
               for p in outdir.iterdir())


def test_unknown_command_fails():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_serve_on_empty_store_is_one_typed_line(tmp_path, capsys):
    # Nothing was ingested: the read path raises StorageError, which the
    # CLI reports as one line naming the command and the error class.
    code = main(["serve", "--operators", "Motion,License,OCR",
                 "--workdir", str(tmp_path / "empty")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("repro serve: StorageError: no stored segment")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, prefix, code", [
    (["configure", "--operators", "Motion", "--ingest-cores", "1e-6"],
     "repro configure: BudgetError: ", 4),
    (["configure", "--operators", "Frobnicate"],
     "repro configure: QueryError: ", 5),
])
def test_library_errors_map_to_family_exit_codes(argv, prefix, code, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


def test_every_error_family_is_mapped():
    from repro import errors
    from repro.cli import EXIT_CODES, exit_code

    assert exit_code(errors.ReplicaUnavailableError("x")) == 3
    assert exit_code(errors.ShardFailedError("x")) == 3
    assert exit_code(errors.VStoreError("x")) == 1
    # Every direct VStoreError subclass is mapped, none to 0/1/2.
    families = {cls for cls in vars(errors).values()
                if isinstance(cls, type)
                and cls.__bases__ == (errors.VStoreError,)}
    assert families == {cls for cls, _ in EXIT_CODES}
    assert all(code >= 3 for _, code in EXIT_CODES)
    # Storage, configuration, query and input errors stay distinguishable.
    assert len({exit_code(e("x")) for e in (
        errors.StorageError, errors.ConfigurationError, errors.QueryError,
        errors.KnobError)}) == 4
