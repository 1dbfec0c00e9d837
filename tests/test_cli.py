import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

from capture_helpers import handshake_frames, write_pcap
import mptcpkit
from mptcpkit import bench as bench_mod
from mptcpkit import cli, netsim
from mptcpkit.cli import POSITIVE_SCAN_LABELS, _read_records, _targets_from_scan, main
from mptcpkit.errors import TransportUnavailable
from mptcpkit.netsim import SimNetwork
from mptcpkit.options import Key
from mptcpkit.packet import ip_family
from mptcpkit.probe import CampaignRecord, RatePacer, VirtualClock

TOPOLOGY = """\
path 10.0.0.1 80 true_host(v0,v1)
path 10.0.0.2 80 mirror tcp_host
path 10.0.0.3 80 quoting(64) strip true_host(v0)
path 10.0.0.4 443 drop tcp_host
path 10.0.0.5 80 key_rewrite tcp_host
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "topology.txt").write_text(TOPOLOGY)
    (tmp_path / "targets.csv").write_text(
        "10.0.0.1,80\n10.0.0.2,80\n10.0.0.3,80\n10.0.0.4,443\n10.0.0.5,80\n"
    )
    (tmp_path / "blocklist.txt").write_text("# empty\n")
    return tmp_path


def run_ok(argv):
    assert main(argv) == 0


class TestScan:
    def test_sim_scan_classifications(self, workdir):
        out = workdir / "scan.txt"
        run_ok([
            "scan", "--targets", str(workdir / "targets.csv"),
            "--sim-topology", str(workdir / "topology.txt"),
            "--version", "0", "--seed", "7", "--out", str(out),
        ])
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        labels = {l.split(",")[1]: l.split(",")[4] for l in lines}
        assert labels["10.0.0.1"] == "potential_capable"
        assert labels["10.0.0.2"] == "mirrored_key"
        assert labels["10.0.0.3"] == "no_mp_capable"
        assert labels["10.0.0.4"] == "no_response"
        assert labels["10.0.0.5"] == "potential_capable"

    def test_live_scan_without_guardrails_refused(self, workdir, capsys):
        rc = main(["scan", "--targets", str(workdir / "targets.csv")])
        assert rc == 1
        assert "refused" in capsys.readouterr().err

    def test_blocklist_environment_variable_not_read(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("MPTCPKIT_BLOCKLIST", str(workdir / "blocklist.txt"))
        rc = main(["scan", "--targets", str(workdir / "targets.csv"), "--rate", "10"])
        assert rc == 1
        assert "without --blocklist" in capsys.readouterr().err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["scan"])  # missing required --targets
        assert exc.value.code == 2

    def test_jsonl_format(self, workdir):
        out = workdir / "scan.jsonl"
        run_ok([
            "scan", "--targets", str(workdir / "targets.csv"),
            "--sim-topology", str(workdir / "topology.txt"),
            "--format", "jsonl", "--seed", "7", "--out", str(out),
        ])
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows[0]["address"] == "10.0.0.1"
        assert rows[0]["classification"] == "potential_capable"

    def test_blocklist_skips(self, workdir):
        (workdir / "blocklist.txt").write_text("10.0.0.2/32\n")
        out = workdir / "scan.txt"
        run_ok([
            "scan", "--targets", str(workdir / "targets.csv"),
            "--sim-topology", str(workdir / "topology.txt"),
            "--blocklist", str(workdir / "blocklist.txt"),
            "--seed", "7", "--out", str(out),
        ])
        labels = {l.split(",")[1]: l.split(",")[4] for l in out.read_text().splitlines()}
        assert labels["10.0.0.2"] == "skipped"

    def test_seeded_runs_byte_identical(self, workdir):
        out1 = workdir / "a.txt"
        out2 = workdir / "b.txt"
        for out in (out1, out2):
            run_ok([
                "scan", "--targets", str(workdir / "targets.csv"),
                "--sim-topology", str(workdir / "topology.txt"),
                "--seed", "7", "--out", str(out),
            ])
        assert out1.read_bytes() == out2.read_bytes()

    def test_jsonl_record_keeps_got_version_and_note(self, workdir):
        record = CampaignRecord(
            1.5, "10.0.0.1", 80, 1, "version_mismatch",
            sender_key=Key(0xAB), got_version=0, note="reset",
        )
        scan = workdir / "scan.jsonl"
        scan.write_text(record.to_json() + "\n")
        assert _read_records(str(scan)) == [record]

    def test_dry_run_emits_probe_bytes(self, workdir):
        out = workdir / "dry.jsonl"
        run_ok([
            "scan", "--targets", str(workdir / "targets.csv"),
            "--dry-run", "--format", "jsonl", "--out", str(out),
        ])
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(r["classification"] == "dry_run" for r in rows)
        assert all(r["note"] for r in rows)


class TestSimulate:
    def test_seed_required(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--generate", "40",
                "--out-topology", str(workdir / "gen-topo.txt"),
                "--out-targets", str(workdir / "gen-targets.csv"),
            ])
        assert exc.value.code == 2

    def test_generate_required(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seed", "7"])
        assert exc.value.code == 2

    def test_generate_writes_three_files(self, workdir):
        run_ok([
            "simulate", "--generate", "40", "--seed", "3",
            "--out-topology", str(workdir / "gen-topo.txt"),
            "--out-targets", str(workdir / "gen-targets.csv"),
            "--out-truth", str(workdir / "gen-truth.csv"),
        ])
        targets = (workdir / "gen-targets.csv").read_text().splitlines()
        assert len(targets) == 40
        truth_lines = (workdir / "gen-truth.csv").read_text().splitlines()
        assert truth_lines[0].startswith("address,port,version")
        assert len(truth_lines) == 1 + 2 * 40  # both versions per target

    @pytest.mark.parametrize("marked", [False, True])
    def test_truth_rows_match_a_per_row_reference(self, workdir, monkeypatch, marked):
        """Each row is ground_truth(path, version, family of its address).

        Generated paths give both families the same labels, so a run with
        `marked` also tags each truth with the family it was asked for: a
        shared path on IPv4 and IPv6 targets then shows a memo that ignores
        the family.
        """
        truth_of = netsim.ground_truth
        if marked:
            def truth_of(path, version, family=4, real=netsim.ground_truth):
                return dataclasses.replace(real(path, version, family), first_modifying_ttl=family)
            monkeypatch.setattr(netsim, "ground_truth", truth_of)
        run_ok([
            "simulate", "--generate", "300", "--seed", "5",
            "--out-topology", str(workdir / "gen-topo.txt"),
            "--out-targets", str(workdir / "gen-targets.csv"),
            "--out-truth", str(workdir / "gen-truth.csv"),
        ])
        network = netsim.generate_population(300, seed=5)
        families: dict[int, set[int]] = {}
        for (address, _port), path in network.paths.items():
            if any(node.kind is netsim.BehaviorKind.QUOTING_ROUTER and node.quote_bytes in (28, 64)
                   for node in path.nodes):
                families.setdefault(id(path), set()).add(ip_family(address))
        assert {4, 6} in families.values()
        expected = ["address,port,version,classification,verdict,first_modifying_ttl"]
        for (address, port), path in sorted(network.paths.items()):
            for version in (0, 1):
                truth = truth_of(path, version, ip_family(address))
                ttl = "" if truth.first_modifying_ttl is None else truth.first_modifying_ttl
                expected.append(f"{address},{port},{version},{truth.classification.value},"
                                f"{truth.verdict.value},{ttl}")
        assert (workdir / "gen-truth.csv").read_text().splitlines() == expected
        targets = [f"{address},{port}" for address, port in sorted(network.paths)]
        assert (workdir / "gen-targets.csv").read_text().splitlines() == targets


class TestTrace:
    def test_trace_from_scan(self, workdir):
        scan_out = workdir / "scan.txt"
        run_ok([
            "scan", "--targets", str(workdir / "targets.csv"),
            "--sim-topology", str(workdir / "topology.txt"),
            "--seed", "7", "--out", str(scan_out),
        ])
        trace_out = workdir / "trace.txt"
        run_ok([
            "trace", "--from-scan", str(scan_out),
            "--sim-topology", str(workdir / "topology.txt"),
            "--seed", "7", "--out", str(trace_out),
        ])
        verdicts = {l.split(",")[0]: l.split(",")[2] for l in trace_out.read_text().splitlines()}
        # only the potential targets got traced
        assert set(verdicts) == {"10.0.0.1", "10.0.0.5"}
        assert verdicts["10.0.0.1"] == "truly_capable"
        assert verdicts["10.0.0.5"] == "middlebox_affected"

    def test_targets_from_scan_first_seen_order(self, tmp_path):
        rows = [
            ("10.0.0.2", 80, "potential_capable"),
            ("10.0.0.1", 80, "no_mp_capable"),
            ("2001:db8::1", 80, "potential_capable"),
            ("10.0.0.1", 80, "potential_capable"),
            ("10.0.0.2", 80, "potential_capable"),
            ("10.0.0.2", 443, "potential_capable"),
            ("2001:db8::1", 80, "potential_capable"),
            ("10.0.0.3", 80, "no_response"),
            ("10.0.0.1", 80, "potential_capable"),
        ]
        scan = tmp_path / "scan.txt"
        scan.write_text("".join(
            CampaignRecord(float(i), address, port, 0, label).to_csv() + "\n"
            for i, (address, port, label) in enumerate(rows)
        ))
        assert _targets_from_scan(str(scan), POSITIVE_SCAN_LABELS) == [
            ("10.0.0.2", 80), ("2001:db8::1", 80), ("10.0.0.1", 80), ("10.0.0.2", 443),
        ]

    def test_live_trace_refused_without_guardrails(self, workdir):
        assert main(["trace", "--targets", str(workdir / "targets.csv")]) == 1

    def test_blocklisted_targets_skipped_unprobed(self, workdir, monkeypatch):
        probed = []
        ttl_probe = SimNetwork.ttl_probe

        def recording_ttl_probe(network, syn, ttl):
            probed.append(syn.dst)
            return ttl_probe(network, syn, ttl)

        monkeypatch.setattr(SimNetwork, "ttl_probe", recording_ttl_probe)
        (workdir / "blocklist.txt").write_text("10.0.0.1/32\n10.0.0.4/32\n")
        out = workdir / "trace.txt"
        run_ok([
            "trace", "--targets", str(workdir / "targets.csv"),
            "--sim-topology", str(workdir / "topology.txt"),
            "--blocklist", str(workdir / "blocklist.txt"),
            "--seed", "7", "--out", str(out),
        ])
        rows = out.read_text().splitlines()
        assert rows[0] == "10.0.0.1,80,skipped,,"
        assert rows[3] == "10.0.0.4,443,skipped,,"
        assert set(probed) == {"10.0.0.2", "10.0.0.3", "10.0.0.5"}

    def test_live_trace_paced_at_rate(self, workdir, monkeypatch):
        clock = VirtualClock()
        sent = []

        class SilentTransport:
            def ttl_probe(self, syn, ttl):
                sent.append(clock())
                return None

        monkeypatch.setattr(cli, "_resolve_transport", lambda args: SilentTransport())
        monkeypatch.setattr(
            cli, "RatePacer", lambda rate: RatePacer(rate, clock=clock, sleep=clock.sleep)
        )
        run_ok([
            "trace", "--targets", str(workdir / "targets.csv"),
            "--blocklist", str(workdir / "blocklist.txt"), "--rate", "10",
            "--max-ttl", "4", "--out", str(workdir / "trace.txt"),
        ])
        assert len(sent) == 5 * 4 * 3  # every TTL tried three times, no answer
        # epsilon shrinks the window against float representation fuzz
        for start in sent:
            assert sum(1 for t in sent if start <= t < start + 1.0 - 1e-9) <= 10


class FailingTransport:
    """Raises OSError for 10.0.0.2 and hears nothing from anyone else."""

    def __init__(self):
        self.probed = []

    def _send(self, syn):
        self.probed.append(syn.dst)
        if syn.dst == "10.0.0.2":
            raise OSError("sendto: network unreachable")

    def handshake(self, syn):
        self._send(syn)
        return None

    def ttl_probe(self, syn, ttl):
        self._send(syn)
        return None


class TestPerTargetFailure:
    TARGETS = "10.0.0.1,80\n10.0.0.2,80\n10.0.0.3,443\n"

    def run_live(self, workdir, monkeypatch, argv):
        transport = FailingTransport()
        monkeypatch.setattr(cli, "_resolve_transport", lambda args: transport)
        (workdir / "three.csv").write_text(self.TARGETS)
        out = workdir / "out.txt"
        run_ok([
            *argv, "--targets", str(workdir / "three.csv"),
            "--blocklist", str(workdir / "blocklist.txt"), "--rate", "100000",
            "--out", str(out),
        ])
        return transport, out.read_text().splitlines()

    def test_scan_records_error_and_goes_on(self, workdir, monkeypatch):
        transport, rows = self.run_live(workdir, monkeypatch, ["scan", "--format", "jsonl"])
        records = [json.loads(row) for row in rows]
        assert [(r["address"], r["classification"]) for r in records] == [
            ("10.0.0.1", "no_response"), ("10.0.0.2", "error"), ("10.0.0.3", "no_response"),
        ]
        assert records[1]["note"] == "sendto: network unreachable"
        assert transport.probed == ["10.0.0.1", "10.0.0.2", "10.0.0.3"]

    def test_scan_csv_error_row(self, workdir, monkeypatch):
        _transport, rows = self.run_live(workdir, monkeypatch, ["scan"])
        assert [row.split(",", 1)[1] for row in rows] == [
            "10.0.0.1,80,0,no_response,", "10.0.0.2,80,0,error,", "10.0.0.3,443,0,no_response,",
        ]

    def test_trace_records_error_and_goes_on(self, workdir, monkeypatch):
        transport, rows = self.run_live(workdir, monkeypatch, ["trace", "--max-ttl", "2"])
        assert rows == [
            "10.0.0.1,80,unreachable,,", "10.0.0.2,80,error,,", "10.0.0.3,443,unreachable,,",
        ]
        assert transport.probed.count("10.0.0.3") == 2 * 3  # two TTLs, three tries each


class TestSharedGuard:
    """scan, trace and bench build one guard the same way, simulated or live."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every transport a command builds, stubbed; each logs its build and close."""
        log = []

        class Fake:
            def __init__(self, *args, **kwargs):
                log.append("built")

            def close(self):
                log.append("closed")

        monkeypatch.setattr(cli, "_resolve_transport", Fake)
        monkeypatch.setattr(netsim, "load_topology", Fake)
        monkeypatch.setattr(bench_mod, "SimTimingTransport", Fake)
        monkeypatch.setattr(bench_mod, "SystemTimingTransport", Fake)
        return log

    @pytest.mark.parametrize("rate", ["0", "-1"])
    @pytest.mark.parametrize("mode", ["simulated", "live"])
    @pytest.mark.parametrize("command", ["scan", "trace", "bench"])
    def test_nonpositive_rate_refused_before_any_transport(self, workdir, capsys, built,
                                                           command, mode, rate):
        source = (["--sim-topology", str(workdir / "topology.txt")] if mode == "simulated"
                  else ["--blocklist", str(workdir / "blocklist.txt")])
        extra = ["--out-dir", str(workdir / "bench")] if command == "bench" else []
        rc = main([command, "--targets", str(workdir / "targets.csv"), *source,
                   "--rate", rate, *extra])
        assert rc == 1
        assert capsys.readouterr().err.startswith("refused: ")
        assert built == []

    @pytest.mark.parametrize("argv", [
        ["trace", "--rate", "0"],
        ["trace", "--rate", "10", "--probe-key", "zz"],
        ["scan", "--rate", "10", "--probe-key", "zz"],
    ])
    def test_live_refusal_leaves_no_transport_open(self, workdir, built, argv):
        rc = main([*argv, "--targets", str(workdir / "targets.csv"),
                   "--blocklist", str(workdir / "blocklist.txt")])
        assert rc == 1
        assert built in ([], ["built", "closed"])

    @pytest.mark.parametrize("command, method", [
        ("trace", (SimNetwork, "ttl_probe")),
        ("bench", (bench_mod.SimTimingTransport, "fetch")),
    ])
    def test_simulated_sends_advance_the_virtual_clock(self, workdir, monkeypatch,
                                                       command, method):
        guards, sends = [], []
        build_guard = cli._guard_from_args
        monkeypatch.setattr(cli, "_guard_from_args",
                            lambda args: guards.append(build_guard(args)) or guards[-1])
        owner, name = method
        send = getattr(owner, name)

        def counted(self, *args):
            sends.append(args)
            return send(self, *args)

        monkeypatch.setattr(owner, name, counted)
        extra = ["--out-dir", str(workdir / "bench")] if command == "bench" else []
        run_ok([command, "--targets", str(workdir / "targets.csv"),
                "--sim-topology", str(workdir / "topology.txt"), "--rate", "1000",
                "--seed", "7", *extra])
        (guard,) = guards
        assert len(sends) > 5
        assert guard.pacer.clock.now == pytest.approx(len(sends) / 1000)


class TestKeys:
    def test_keys_from_scan(self, workdir):
        scan_out = workdir / "scan.txt"
        run_ok([
            "scan", "--targets", str(workdir / "targets.csv"),
            "--sim-topology", str(workdir / "topology.txt"),
            "--seed", "7", "--out", str(scan_out),
        ])
        report_out = workdir / "keys.txt"
        run_ok(["keys", "--from-scan", str(scan_out), "--out", str(report_out)])
        text = report_out.read_text()
        assert "# probe_key_weight=16" in text
        assert "# mirrored_exact_count=1" in text

    def test_keys_from_file(self, workdir):
        keyfile = workdir / "keys-in.txt"
        keyfile.write_text("000000000000ffff\n1111222233334444\n")
        run_ok(["keys", "--in", str(keyfile), "--out", str(workdir / "keys-out.txt")])
        assert "# total=2" in (workdir / "keys-out.txt").read_text()

    def test_empty_input_fails(self, workdir):
        keyfile = workdir / "empty.txt"
        keyfile.write_text("# nothing\n")
        assert main(["keys", "--in", str(keyfile)]) == 1


class TestAnalyzePcap:
    def test_share_rows(self, workdir):
        capture = workdir / "x.pcap"
        frames = handshake_frames("10.1.0.1", "10.2.0.1", 5555, 80, extra_data_packets=4)
        frames += handshake_frames(
            "10.1.0.2", "10.2.0.2", 6666, 443, mptcp_version=0,
            extra_data_packets=4, t0=1.0,
        )
        write_pcap(capture, frames, linktype=101)
        out = workdir / "report.txt"
        run_ok([
            "analyze-pcap", "--in", str(capture), "--min-packets", "5",
            "--out", str(out),
        ])
        lines = out.read_text().splitlines()
        share = [l for l in lines if l.startswith("share,")][0].split(",")
        assert share[2] == "2"  # tcp flows
        assert share[4] == "1"  # mptcp flows
        assert any(l.startswith("concentration,") for l in lines)

    def test_min_packets_filters(self, workdir):
        capture = workdir / "y.pcap"
        frames = handshake_frames("10.1.0.1", "10.2.0.1", 5555, 80)  # 3 packets
        write_pcap(capture, frames, linktype=101)
        out = workdir / "report.txt"
        run_ok(["analyze-pcap", "--in", str(capture), "--out", str(out)])
        share = out.read_text().splitlines()[0].split(",")
        assert share[2] == "0"

    def test_service_breakdown(self, workdir):
        capture = workdir / "z.pcap"
        frames = handshake_frames(
            "10.1.0.2", "10.2.0.2", 50000, 443, mptcp_version=0, extra_data_packets=4
        )
        write_pcap(capture, frames, linktype=101)
        registry = workdir / "services.csv"
        registry.write_text("443,tcp,HTTPS\n")
        out = workdir / "report.txt"
        run_ok([
            "analyze-pcap", "--in", str(capture), "--services", str(registry),
            "--out", str(out),
        ])
        assert any(l.startswith("service,") and ",HTTPS," in l for l in out.read_text().splitlines())

    def test_missing_file_operational_error(self, workdir):
        assert main(["analyze-pcap", "--in", str(workdir / "missing.pcap")]) == 1


class TestReport:
    def test_summary_counts(self, workdir):
        trace = workdir / "trace.txt"
        trace.write_text(
            "10.0.0.1,80,truly_capable,,aa00000000000001\n"
            "10.0.0.2,80,unreachable,,\n"
            "10.0.0.3,80,truly_capable,,aa00000000000002\n"
        )
        out = workdir / "summary.txt"
        run_ok(["report", "summary", "--in", str(trace), "--out", str(out)])
        assert out.read_text() == "truly_capable,2\nunreachable,1\n"

    def test_summary_rejects_scan_records(self, workdir, capsys):
        scan = workdir / "scan.txt"
        scan.write_text("0.000000,10.0.0.1,80,0,potential_capable,00000000000000aa\n")
        assert main(["report", "summary", "--in", str(scan)]) == 1
        assert "expected 5 fields" in capsys.readouterr().err

    def test_overlap(self, workdir):
        a = workdir / "a.txt"
        b = workdir / "b.txt"
        a.write_text("x\ny\n")
        b.write_text("y\nz\n")
        out = workdir / "overlap.txt"
        run_ok(["report", "overlap", "--set-a", str(a), "--set-b", str(b), "--out", str(out)])
        lines = dict(l.split(",")[:2] for l in out.read_text().splitlines())
        assert lines["both"] == "1"
        assert lines["only_a"] == "1"

    def test_migration(self, workdir):
        for name, content in (
            ("pv0.txt", "h1\nh2\n"), ("pv1.txt", ""), ("cv0.txt", "h1\nh2\n"), ("cv1.txt", "h1\n"),
        ):
            (workdir / name).write_text(content)
        out = workdir / "mig.txt"
        run_ok([
            "report", "migration",
            "--prev-v0", str(workdir / "pv0.txt"), "--prev-v1", str(workdir / "pv1.txt"),
            "--cur-v0", str(workdir / "cv0.txt"), "--cur-v1", str(workdir / "cv1.txt"),
            "--out", str(out),
        ])
        assert "added_v1_support,1" in out.read_text()

    def test_ingest_consistent_eligible(self, workdir):
        store = workdir / "store"
        for month, label in (("2021-10", "potential_capable"),
                             ("2021-11", "mirrored_key"),
                             ("2021-12", "potential_capable")):
            records = workdir / f"scan-{month}.txt"
            records.write_text(f"0.0,10.0.0.1,80,0,{label},00000000000000aa\n")
            run_ok([
                "report", "ingest", "--in", str(records),
                "--store", str(store), "--date", month,
            ])
        out = workdir / "eligible.txt"
        run_ok([
            "report", "eligible", "--store", str(store), "--family", "v4",
            "--port", "80", "--version", "0", "--at", "2021-12", "--out", str(out),
        ])
        assert out.read_text() == "10.0.0.1,80\n"
        out2 = workdir / "consistent.txt"
        run_ok([
            "report", "consistent", "--store", str(store), "--family", "v4",
            "--port", "80", "--version", "0", "--at", "2021-12", "--out", str(out2),
        ])
        assert out2.read_text() == ""  # mirrored month breaks the positive streak

    def test_top(self, workdir):
        records = workdir / "hosts.txt"
        records.write_text("10.5.0.1,80\n10.5.0.2,80\n10.3.0.1,443\n")
        prefixes = workdir / "prefixes.csv"
        prefixes.write_text("10.5.0.0/16,500\n10.3.0.0/16,300\n")
        meta = workdir / "meta.csv"
        meta.write_text("500,FiveNet,US,10\n300,ThreeNet,DE,20\n")
        out = workdir / "top.txt"
        run_ok([
            "report", "top", "--in", str(records), "--prefixes", str(prefixes),
            "--asn-meta", str(meta), "--out", str(out),
        ])
        lines = out.read_text().splitlines()
        assert lines[1].startswith("500,2,0,10,US,FiveNet")
        assert lines[2].startswith("300,0,1,20,DE,ThreeNet")

    def test_top_pretty_aligned(self, workdir):
        records = workdir / "hosts.txt"
        records.write_text("10.5.0.1,80\n")
        prefixes = workdir / "prefixes.csv"
        prefixes.write_text("10.5.0.0/16,500\n")
        out = workdir / "top.txt"
        run_ok([
            "report", "top", "--in", str(records), "--prefixes", str(prefixes),
            "--pretty", "--out", str(out),
        ])
        lines = out.read_text().splitlines()
        assert lines[0].split() == ["GROUP", "PORT80", "PORT443", "RANK", "CC", "ORGANIZATION"]
        assert lines[1].startswith("500")

    def test_missing_kind_options_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "overlap", "--set-a", str(workdir / "a.txt")])
        assert exc.value.code == 2
        assert "--set-b" in capsys.readouterr().err

    def test_trace_needs_target_source(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--sim-topology", str(workdir / "topology.txt")])
        assert exc.value.code == 2

    def test_keys_needs_input(self):
        with pytest.raises(SystemExit) as exc:
            main(["keys"])
        assert exc.value.code == 2

    def test_ingest_rejects_non_canonical_month(self, workdir, capsys):
        records = workdir / "scan.txt"
        records.write_text("0.0,10.0.0.1,80,0,potential_capable,00000000000000aa\n")
        empty = workdir / "empty.txt"
        empty.write_text("")
        store = workdir / "store"
        for infile, date in ((records, "2021-1"), (empty, "2021-1"), (records, "2021-1-1"),
                             (records, "202101")):
            rc = main(["report", "ingest", "--in", str(infile), "--store", str(store),
                       "--date", date])
            assert rc == 1
            assert f"error: bad month in '{date}', expected YYYY-MM" in capsys.readouterr().err
            assert not store.exists()

    def test_window_longer_than_the_store_is_one_short_error(self, workdir, capsys):
        records = workdir / "scan.txt"
        records.write_text("0.0,10.0.0.1,80,0,potential_capable,00000000000000aa\n")
        store = str(workdir / "store")
        run_ok(["report", "ingest", "--in", str(records), "--store", store, "--date", "2021-01",
                "--out", str(workdir / "ingest.txt")])
        rc = main(["report", "consistent", "--store", store, "--at", "2021-01",
                   "--window", "30000"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: window of 30000 months is longer than the 1-month series\n")


class TestOutKeptOnFailure:
    """--out is opened at the first write: a run that fails before it keeps
    the previous file, and a clean run without output still empties it."""

    @pytest.mark.parametrize("argv", [
        ["report", "top", "--in", "hosts.txt", "--prefixes", "nope.csv"],
        ["analyze-pcap", "--in", "missing.pcap"],
        ["scan", "--targets", "targets.csv", "--sim-topology", "topology.txt", "--rate", "0"],
    ], ids=["report-top", "analyze-pcap", "scan"])
    def test_failed_run_keeps_previous_out(self, workdir, capsys, monkeypatch, argv):
        monkeypatch.chdir(workdir)
        (workdir / "hosts.txt").write_text("10.5.0.1,80\n")
        out = workdir / "out.txt"
        out.write_bytes(b"previous\n")
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err
        assert out.read_bytes() == b"previous\n"

    def test_empty_result_replaces_old_file(self, workdir):
        trace = workdir / "trace.txt"
        trace.write_text("")
        out = workdir / "out.txt"
        out.write_bytes(b"previous\n")
        run_ok(["report", "summary", "--in", str(trace), "--out", str(out)])
        assert out.read_bytes() == b""


# The options each command or report kind cannot run without.
REQUIRED_OPTIONS = {
    ("simulate",): ("--generate", "--seed", "--out-topology", "--out-targets"),
    ("report", "summary"): ("--in",),
    ("report", "overlap"): ("--set-a", "--set-b"),
    ("report", "versions"): ("--set-a", "--set-b"),
    ("report", "migration"): ("--prev-v0", "--prev-v1", "--cur-v0", "--cur-v1"),
    ("report", "ingest"): ("--in", "--store", "--date"),
    ("report", "consistent"): ("--store", "--at"),
    ("report", "eligible"): ("--store", "--at"),
    ("report", "top"): ("--in", "--prefixes"),
}
COMMANDS = ["scan", "trace", "keys", "simulate", "analyze-pcap", "report", "bench"]


def _usage_cases():
    """(argv, exit code, text on the last stderr line or None)."""
    for command, options in REQUIRED_OPTIONS.items():
        for missing in options:
            argv = [*command] + [a for o in options if o != missing for a in (o, "1")]
            yield pytest.param(argv, 2, missing, id=f"{' '.join(command)} without {missing}")
    for argv, error in (
        (["report", "summary", "--in", "t", "--pretty"], "unrecognized arguments: --pretty"),
        (["report", "consistent", "--store", "s", "--at", "2021-01", "--only", "x"],
         "unrecognized arguments: --only x"),
        (["report", "summary", "--in", "t", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["keys", "--in", "k", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["analyze-pcap", "--in", "c", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["trace", "--targets", "t", "--from-scan", "s"],
         "argument --from-scan: not allowed with argument --targets"),
        (["keys", "--in", "k", "--from-scan", "s"],
         "argument --from-scan: not allowed with argument --in"),
        (["scan", "--targets", "t", "--seed", "x"], "argument --seed: invalid seed 'x'"),
        (["bench", "--targets", "t", "--runs", "x"], "argument --runs: invalid int value: 'x'"),
    ):
        yield pytest.param(argv, 2, error, id=" ".join(argv))
    kinds = [command for command in REQUIRED_OPTIONS if command[0] == "report"]
    for command in [(c,) for c in COMMANDS] + kinds:
        yield pytest.param([*command, "--help"], 0, None, id=f"{' '.join(command)} --help")


@pytest.mark.parametrize("argv, code, error", _usage_cases())
def test_usage_rules_enforced_by_the_parser(argv, code, error, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    if error is not None:
        assert error in capsys.readouterr().err.splitlines()[-1]


def _seeded_argv(command, workdir, seed):
    """A complete `command` run on the simulated workdir with `--seed seed`."""
    sim = ["--sim-topology", workdir / "topology.txt"]
    argv = {
        "simulate": ["--generate", 3, "--out-topology", workdir / "gen-topology.txt",
                     "--out-targets", workdir / "gen-targets.csv"],
        "scan": ["--targets", workdir / "targets.csv", "--out", workdir / "scan.csv", *sim],
        "trace": ["--targets", workdir / "targets.csv", "--out", workdir / "trace.csv", *sim],
        "bench": ["--targets", workdir / "targets.csv", "--out-dir", workdir / "bench-out", *sim],
    }[command]
    return [command, *map(str, argv), "--seed", str(seed)]


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["simulate", "scan", "trace", "bench"])
def test_seed_outside_64_bits_is_a_usage_error(command, seed, workdir, capsys):
    # Probes key a blake2b with the seed's 8 bytes, so every seeded command
    # takes one seed type and refuses what does not fit before it runs.
    before = sorted(workdir.iterdir())
    with pytest.raises(SystemExit) as exc:
        main(_seeded_argv(command, workdir, seed))
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith(f"argument --seed: seed must be in [0, 2**64), got {seed}")
    assert sorted(workdir.iterdir()) == before  # nothing written


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("command", ["simulate", "scan", "trace", "bench"])
def test_seed_at_the_ends_of_its_range_runs(command, seed, workdir):
    run_ok(_seeded_argv(command, workdir, seed))


# (argv, option, value, the bound the usage error states). Each argv names
# the outputs a run would write, so the test sees that none was made or changed.
_SIM = ("--sim-topology", "topology.txt")
OUT_OF_RANGE = [
    (("analyze-pcap", "--ewma", "--in", "a.pcap", "--in", "b.pcap", "--out", "out.txt"),
     "--ewma-alpha", value, "must be > 0 and <= 1")
    for value in ("0", "1.5", "nan")
] + [
    (("trace", "--targets", "targets.csv", *_SIM, "--out", "out.txt"),
     "--max-ttl", value, "must be >= 1 and <= 64")
    for value in ("0", "65")
] + [
    (("bench", "--targets", "targets.csv", *_SIM, "--out-dir", "bench-out"),
     "--runs", "0", "must be >= 1"),
    (("report", "top", "--in", "hosts.txt", "--prefixes", "prefixes.csv", "--out", "out.txt"),
     "-k", "0", "must be >= 1"),
    (("report", "top", "--in", "hosts.txt", "--prefixes", "prefixes.csv", "--out", "out.txt"),
     "-k", "-1", "must be >= 1"),
    (("report", "consistent", "--store", "store", "--at", "2021-01", "--out", "out.txt"),
     "--window", "0", "must be >= 1"),
    (("simulate", "--seed", "1", "--out-topology", "t.txt", "--out-targets", "g.csv"),
     "--generate", "-5", "must be >= 0"),
    (("bench", "--targets", "targets.csv", *_SIM, "--out-dir", "bench-out"),
     "--fallback-penalty-ms", "-500", "must be >= 0"),
    (("bench", "--targets", "targets.csv", *_SIM, "--out-dir", "bench-out"),
     "--zero-tol", "-1", "must be >= 0"),
    (("scan", "--targets", "targets.csv", *_SIM, "--out", "out.txt"),
     "--timeout-ms", "-1", "must be > 0"),
    (("trace", "--targets", "targets.csv", *_SIM, "--out", "out.txt"),
     "--timeout-ms", "0", "must be > 0"),
]


def _tree(root):
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("argv, option, value, bound", OUT_OF_RANGE,
                         ids=[" ".join([*takewhile(lambda w: w[0] != "-", a), o, v])
                              for a, o, v, _ in OUT_OF_RANGE])
def test_out_of_range_number_is_a_usage_error(workdir, capsys, monkeypatch, argv, option,
                                              value, bound):
    monkeypatch.chdir(workdir)
    (workdir / "out.txt").write_bytes(b"previous\n")
    before = _tree(workdir)
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"argument {option}: {bound}, got {value}")
    assert _tree(workdir) == before


def _readme_commands():
    """argv of every `mptcpkit` line in the README's sh blocks."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["sudo"]:
                argv = argv[1:]
            if argv[:1] == ["mptcpkit"]:
                yield argv[1:]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_parse(argv):
    cli.build_parser().parse_args(argv)


class TestParserReuse:
    """`main` reuses one parser per process: a call must not see what an
    earlier call parsed, and must run the command bound at call time."""

    def outputs(self, calls, fresh):
        """The --out text of each (argv, out path) call, with a new parser per
        call when `fresh`, else one parser for all of them."""
        texts = []
        for argv, out in calls:
            if fresh:
                cli.build_parser.cache_clear()
            run_ok([*argv, "--out", str(out)])
            texts.append(out.read_text())
        return texts

    def test_append_option_starts_empty_each_call(self, workdir):
        captures = []
        for i, port in enumerate((80, 443)):
            captures.append(str(workdir / f"c{i}.pcap"))
            write_pcap(captures[-1], handshake_frames(
                f"10.1.0.{i}", "10.2.0.1", 5555, port, mptcp_version=0,
                extra_data_packets=4), linktype=101)
        calls = [(["analyze-pcap", "--in", captures[0], "--in", captures[1]], workdir / "two"),
                 (["analyze-pcap", "--in", captures[1]], workdir / "one")]
        reused = self.outputs(calls, fresh=False)
        assert reused == self.outputs(calls, fresh=True)
        assert [text.count("share,") for text in reused] == [2, 1]

    def test_report_kinds_keep_their_own_defaults(self, workdir):
        (workdir / "a.txt").write_text("x\ny\n")
        (workdir / "b.txt").write_text("y\nz\n")
        (workdir / "trace.txt").write_text("10.0.0.1,80,truly_capable,,\n")
        sets = ["--set-a", str(workdir / "a.txt"), "--set-b", str(workdir / "b.txt")]
        calls = [(["report", "overlap", *sets], workdir / "overlap"),
                 (["report", "versions", *sets], workdir / "versions"),
                 (["report", "summary", "--in", str(workdir / "trace.txt")], workdir / "summary"),
                 (["report", "overlap", *sets], workdir / "overlap2")]
        reused = self.outputs(calls, fresh=False)
        assert reused == self.outputs(calls, fresh=True)
        assert [text.split(",", 1)[0] for text in reused] == [
            "both", "both", "truly_capable", "both"]
        assert "v0_only" in reused[1] and "only_a" in reused[3]

    def test_command_patched_after_a_first_call_runs(self, workdir, monkeypatch):
        argv = ["scan", "--targets", str(workdir / "targets.csv"), "--dry-run",
                "--out", str(workdir / "scan.txt")]
        run_ok(argv)
        seen = []
        monkeypatch.setattr(cli, "cmd_scan", lambda args: seen.append(args.targets) or 7)
        assert main(argv) == 7
        assert seen == [str(workdir / "targets.csv")]


class TestBench:
    def test_sim_bench_outputs(self, workdir):
        # 10.0.0.4 sits behind a drop firewall: no successful pairs
        (workdir / "bench-targets.csv").write_text("10.0.0.1,80\n10.0.0.4,443\n")
        out_dir = workdir / "bench"
        run_ok([
            "bench", "--targets", str(workdir / "bench-targets.csv"),
            "--sim-topology", str(workdir / "topology.txt"),
            "--runs", "5", "--seed", "2", "--out-dir", str(out_dir),
        ])
        assert (out_dir / "summary.txt").exists()
        assert (out_dir / "connect.cdf.txt").exists()
        rows = (out_dir / "connect.cdf.txt").read_text().splitlines()
        assert len(rows) == 5  # only the reachable target contributes

    def test_refused_without_mptcp_stack(self, workdir, monkeypatch, capsys):
        fetched = []

        class NoMptcpTransport:
            def __init__(self, transport="tcp"):
                if transport == "mptcp":
                    raise TransportUnavailable("no MPTCP-capable stack: test")
                self.transport = transport

            def fetch(self, target, port, run=0):
                fetched.append((self.transport, target, port, run))

        monkeypatch.setattr(bench_mod, "SystemTimingTransport", NoMptcpTransport)
        out_dir = workdir / "bench"
        out_dir.mkdir()
        rc = main(["bench", "--targets", str(workdir / "targets.csv"),
                   "--blocklist", str(workdir / "blocklist.txt"), "--rate", "10",
                   "--out-dir", str(out_dir)])
        assert rc == 1
        assert "refused: no MPTCP-capable stack" in capsys.readouterr().err
        assert fetched == []
        assert list(out_dir.iterdir()) == []

    def fake_system(self, monkeypatch):
        """Stands in for the host stack; records each transport built and each fetch."""
        log = {"built": [], "fetched": []}

        class FakeTransport:
            def __init__(self, transport="tcp"):
                log["built"].append(transport)
                self.transport = transport

            def fetch(self, target, port, run=0):
                log["fetched"].append((self.transport, target, port, run))
                return bench_mod.TimingSample(self.transport, True, 1.0, None, 2.0, 3.0)

        monkeypatch.setattr(bench_mod, "SystemTimingTransport", FakeTransport)
        return log

    @pytest.mark.parametrize("guards, missing", [
        ([], "--blocklist and --rate"),
        (["--rate", "10"], "--blocklist"),
        (["--blocklist", "blocklist.txt"], "--rate"),
    ])
    def test_live_bench_refused_without_guardrails(self, workdir, monkeypatch, capsys,
                                                   guards, missing):
        log = self.fake_system(monkeypatch)
        guards = [str(workdir / g) if g.endswith(".txt") else g for g in guards]
        out_dir = workdir / "bench"
        rc = main(["bench", "--targets", str(workdir / "targets.csv"), *guards,
                   "--out-dir", str(out_dir)])
        assert rc == 1
        assert capsys.readouterr().err == f"refused: refusing live bench without {missing}\n"
        assert log == {"built": [], "fetched": []}
        assert not out_dir.exists()

    def test_live_bench_skips_blocklisted_and_paces(self, workdir, monkeypatch):
        log = self.fake_system(monkeypatch)
        waits = []
        monkeypatch.setattr(RatePacer, "acquire", lambda self: waits.append(1))
        (workdir / "blocklist.txt").write_text("10.0.0.2/32\n10.0.0.4/32\n")
        run_ok(["bench", "--targets", str(workdir / "targets.csv"),
                "--blocklist", str(workdir / "blocklist.txt"), "--rate", "10",
                "--runs", "2", "--out-dir", str(workdir / "bench")])
        assert log["built"] == ["mptcp", "tcp"]
        fetched_targets = {target for _transport, target, _port, _run in log["fetched"]}
        assert fetched_targets == {"10.0.0.1", "10.0.0.3", "10.0.0.5"}
        assert len(log["fetched"]) == 3 * 2 * 2  # targets x transports x runs
        assert len(waits) == len(log["fetched"])  # every fetch waited its turn

    def test_sim_bench_blocklist_skips_targets(self, workdir):
        (workdir / "bench-targets.csv").write_text("10.0.0.1,80\n10.0.0.5,80\n")
        (workdir / "blocklist.txt").write_text("10.0.0.5/32\n")
        for name, extra in (("all", []), ("blocked", ["--blocklist", str(workdir / "blocklist.txt")])):
            run_ok(["bench", "--targets", str(workdir / "bench-targets.csv"),
                    "--sim-topology", str(workdir / "topology.txt"), *extra,
                    "--runs", "3", "--seed", "2", "--out-dir", str(workdir / name)])
        assert len((workdir / "all" / "connect.cdf.txt").read_text().splitlines()) == 6
        assert len((workdir / "blocked" / "connect.cdf.txt").read_text().splitlines()) == 3


def test_cli_import_loads_no_numeric_stack():
    code = (
        "import sys, mptcpkit.cli; "
        "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mptcpkit.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
    )
    assert done.stdout.strip() == "[]"


class TestReportHostRows:
    """`report top`, `overlap`, `versions` and `migration` read one row format set."""

    SCAN_A = ("0.000000,10.5.0.1,80,0,potential_capable,00000000000000aa\n"
              "0.000000,10.5.0.2,80,0,no_mp_capable,\n")
    SCAN_B = "0.000000,10.9.0.9,80,0,potential_capable,00000000000000bb\n"

    def overlap(self, workdir, a_text, b_text, *extra):
        (workdir / "a.txt").write_text(a_text)
        (workdir / "b.txt").write_text(b_text)
        out = workdir / "overlap.txt"
        rc = main(["report", "overlap", "--set-a", str(workdir / "a.txt"),
                   "--set-b", str(workdir / "b.txt"), "--out", str(out), *extra])
        return rc, out.read_text() if rc == 0 else None

    def test_scan_csvs_compare_addresses(self, workdir):
        rc, text = self.overlap(workdir, self.SCAN_A, self.SCAN_B)
        assert rc == 0
        assert text == "both,0,0.000000\nonly_a,2,0.666667\nonly_b,1,0.333333\n"

    def test_only_filters_every_host_input(self, workdir):
        rc, text = self.overlap(workdir, self.SCAN_A, self.SCAN_B, "--only", "potential_capable")
        assert rc == 0
        assert text == "both,0,0.000000\nonly_a,1,0.500000\nonly_b,1,0.500000\n"

    def test_jsonl_scan_is_a_host_set(self, workdir):
        records = [CampaignRecord(0.0, "10.5.0.1", 80, 1, "potential_capable",
                                  Key(0xAA), got_version=1),
                   CampaignRecord(0.0, "10.5.0.3", 80, 1, "no_response")]
        jsonl = "".join(r.to_json() + "\n" for r in records)
        rc, text = self.overlap(workdir, jsonl, "10.5.0.1,80\n10.5.0.4\n")
        assert rc == 0
        assert text.splitlines()[0] == "both,1,0.333333"

    def test_trace_rows_label_is_the_verdict(self, workdir):
        capable = "10.5.0.1,80,truly_capable,,aa00000000000001\n"
        unreachable = "10.5.0.1,80,unreachable,,\n"
        for name, text in (("pv0", capable), ("pv1", unreachable), ("cv0", capable),
                           ("cv1", capable)):
            (workdir / f"{name}.txt").write_text(text)
        out = workdir / "mig.txt"
        run_ok(["report", "migration", "--only", "truly_capable",
                "--prev-v0", str(workdir / "pv0.txt"), "--prev-v1", str(workdir / "pv1.txt"),
                "--cur-v0", str(workdir / "cv0.txt"), "--cur-v1", str(workdir / "cv1.txt"),
                "--out", str(out)])
        assert out.read_text().splitlines()[0] == "added_v1_support,1"

    def test_only_on_unlabelled_rows_exits_1(self, workdir, capsys):
        rc, _ = self.overlap(workdir, "10.5.0.1,80\n", "10.5.0.1,80\n", "--only", "potential_capable")
        assert rc == 1
        err = capsys.readouterr().err
        assert "--only" in err and "Traceback" not in err

    def test_unknown_row_names_the_formats(self, workdir, capsys):
        rc, _ = self.overlap(workdir, "10.5.0.1,80,x\n", "10.5.0.1\n")
        assert rc == 1
        assert "expected address[,port], a trace row or a scan row" in capsys.readouterr().err

    def top(self, workdir, hosts, *extra):
        (workdir / "hosts.txt").write_text(hosts)
        (workdir / "prefixes.csv").write_text("10.5.0.0/16,500\n10.9.0.0/16,900\n")
        out = workdir / "top.txt"
        rc = main(["report", "top", "--in", str(workdir / "hosts.txt"),
                   "--prefixes", str(workdir / "prefixes.csv"), "--out", str(out), *extra])
        return rc, out.read_text() if rc == 0 else None

    def test_top_only_on_scan_csv_counts_matching_rows(self, workdir):
        rc, text = self.top(workdir, self.SCAN_A + self.SCAN_B, "--only", "potential_capable")
        assert rc == 0
        assert text.splitlines()[1:] == ["500,1,0,,??,Unknown", "900,1,0,,??,Unknown"]

    def test_top_needs_ports(self, workdir, capsys):
        rc, _ = self.top(workdir, "10.5.0.1\n")
        assert rc == 1
        err = capsys.readouterr().err
        assert "needs a port" in err and "Traceback" not in err

    def test_top_on_a_jsonl_scan(self, workdir):
        record = CampaignRecord(0.0, "10.9.0.9", 443, 0, "potential_capable", Key(0xBB))
        rc, text = self.top(workdir, record.to_json() + "\n")
        assert rc == 0
        assert text.splitlines()[1] == "900,0,1,,??,Unknown"


def test_scan_json_missing_field_exits_1(workdir, capsys):
    scan = workdir / "scan.jsonl"
    scan.write_text('{"address": "10.0.0.1"}\n')
    assert main(["keys", "--from-scan", str(scan)]) == 1
    err = capsys.readouterr().err
    assert "bad scan record" in err and "Traceback" not in err
    with pytest.raises(ValueError):
        CampaignRecord.from_json('{"address": "10.0.0.1"}')
