"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_table1(self, capsys):
        code, out = run_cli(capsys, "table1")
        assert code == 0
        assert "electricity_meter" in out
        assert "8,583,503,168" in out

    def test_fig6(self, capsys):
        code, out = run_cli(capsys, "fig6")
        assert code == 0
        assert "fog_layer_1_nodes: 73" in out
        assert "fog_layer_2_nodes: 10" in out

    def test_fig7_all_categories(self, capsys):
        code, out = run_cli(capsys, "fig7")
        assert code == 0
        for category in ("energy", "noise", "garbage", "parking", "urban"):
            assert category in out

    def test_fig7_single_category(self, capsys):
        code, out = run_cli(capsys, "fig7", "--category", "energy")
        assert code == 0
        assert "energy" in out
        assert "noise" not in out

    def test_compare_with_and_without_compression(self, capsys):
        _, with_compression = run_cli(capsys, "compare")
        _, without_compression = run_cli(capsys, "compare", "--no-compression")
        assert "backhaul reduction" in with_compression
        assert with_compression != without_compression

    def test_simulate_small_run(self, capsys):
        code, out = run_cli(capsys, "simulate", "--hours", "2", "--scale", "0.00002")
        assert code == 0
        assert "fog-to-cloud" in out
        assert "backhaul reduction" in out

    def test_simulate_rejects_bad_arguments(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--hours", "0"])
        with pytest.raises(SystemExit):
            main(["simulate", "--scale", "0"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["does-not-exist"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestIngestCommand:
    def test_ingest_direct_text_report(self, capsys):
        code, out = run_cli(capsys, "ingest")
        assert code == 0
        assert "transport 'direct'" in out
        assert "fog_layer_1_nodes: 73" in out
        assert "'dropped_payloads': 0" in out

    def test_ingest_json_carries_summary_health_and_traffic(self, capsys):
        import json

        code, out = run_cli(capsys, "ingest", "--transport", "frames-binary-v2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["transport"] == "frames-binary-v2"
        assert payload["summary"]["health"]["conservation"]["dropped_payloads"] == 0
        assert payload["traffic"]["cloud"] > 0

    def test_ingest_sharded_inline(self, capsys):
        code, out = run_cli(
            capsys, "ingest", "--transport", "sharded", "--workers", "2",
            "--inline-workers",
        )
        assert code == 0
        assert "worker_restarts: 0" in out

    def test_workers_require_sharded_transport(self, capsys):
        with pytest.raises(SystemExit):
            main(["ingest", "--workers", "2"])
        with pytest.raises(SystemExit):
            main(["ingest", "--rounds", "0"])
        with pytest.raises(SystemExit):
            main(["ingest", "--inline-workers"])

    @pytest.mark.parametrize("transport", ["frames-binary", "frames-json"])
    def test_retired_binary_transport_is_not_a_choice(self, capsys, transport):
        with pytest.raises(SystemExit) as excinfo:
            main(["ingest", "--transport", transport])
        assert excinfo.value.code == 2
        assert f"invalid choice: {transport!r}" in capsys.readouterr().err


class TestQueryCommand:
    def test_query_text_output_names_the_serving_tier(self, capsys):
        code, out = run_cli(capsys, "query", "--since", "0", "--until", "1800")
        assert code == 0
        assert "served from fog_layer_1" in out
        assert "more" in out or "=" in out

    def test_query_json_reports_attribution(self, capsys):
        import json

        code, out = run_cli(
            capsys, "query", "--since", "0", "--until", "900",
            "--category", "energy", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] > 0
        assert set(payload["rows_by_tier"]) == {"fog_layer_1"}
        assert all(source["tier"] == "fog_layer_1" for source in payload["sources"])

    def test_query_sharded_serves_from_broad_tiers(self, capsys):
        import json

        code, out = run_cli(
            capsys, "query", "--transport", "sharded", "--workers", "2",
            "--inline-workers", "--since", "0", "--until", "900", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] > 0
        assert "fog_layer_1" not in payload["rows_by_tier"]

    def test_query_json_default_window_is_strict_json(self, capsys):
        import json

        code, out = run_cli(capsys, "query", "--json")
        assert code == 0
        payload = json.loads(out)
        # Unbounded ends must be null, not the non-standard Infinity literal.
        assert payload["window"] == {"since": None, "until": None}
        assert "Infinity" not in out

    def test_query_section_filter(self, capsys):
        import json

        code, out = run_cli(
            capsys, "query", "--section", "district-01/section-01", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert all(
            source["section_id"] == "district-01/section-01"
            for source in payload["sources"]
        )

    def test_query_summarize_text_and_json(self, capsys):
        import json

        code, out = run_cli(capsys, "query", "--summarize")
        assert code == 0
        assert "sketch bytes" in out
        assert "distinct sensors" in out

        code, out = run_cli(capsys, "query", "--summarize", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] > 0
        assert payload["summary_bytes"] > 0
        assert payload["categories"]["energy"]["distinct_sensors"] > 0

    def test_query_summarize_rejects_sensor_filter(self, capsys):
        with pytest.raises(SystemExit, match="per category"):
            run_cli(capsys, "query", "--summarize", "--sensor", "s-1")

    @pytest.mark.parametrize("flag", ["--since", "--until"])
    @pytest.mark.parametrize("mode", [(), ("--summarize",)], ids=["rows", "summarize"])
    def test_query_rejects_a_nan_bound(self, capsys, flag, mode):
        # A NaN bound used to read as an unbounded (or empty) window and
        # print "since": null like the default one.
        with pytest.raises(SystemExit, match=f"{flag} must not be nan"):
            run_cli(capsys, "query", flag, "nan", "--json", *mode)
