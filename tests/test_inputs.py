"""The one text reader, its comment and error rules, the longest-prefix
table, and every text input that goes through them."""

import ast
import contextlib
import io
import ipaddress
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptcpkit import cli, inputs, netsim
from mptcpkit.flows import ServiceTables, service_row
from mptcpkit.inputs import PrefixTable, prefix_key, prefix_row, rows
from mptcpkit.options import Key
from mptcpkit.probe import KEYED_LABELS, SCAN_LABELS, Blocklist, CampaignRecord, target_row
from mptcpkit.store import (EnrichmentTable, HostRecord, ScanSnapshot, SnapshotStore,
                            asn_meta_row, prefix_asn_row)
from mptcpkit.tracer import MAX_TTL, TRACE_VERDICTS, TraceRecord


def test_data_lines_cuts_comments_and_skips_blanks():
    lines = ["# header", "", "   ", "a,1  # inline", "\tb,2\n", "#", "c # x # y"]
    assert list(rows(lines, str)) == ["a,1", "b,2", "c"]

    def parse(line):
        if line == "c":
            raise ValueError(f"bad row {line!r}")
        return line

    with pytest.raises(ValueError) as raised:
        list(rows(lines, parse))
    assert str(raised.value) == "line 7: bad row 'c'"  # comment and blank lines count
    assert str(raised.value.__cause__) == "bad row 'c'"


def test_rows_name_only_errors_of_the_row_parser():
    with pytest.raises(KeyError):  # not a ValueError: raised as it is
        list(rows(["a"], {}.__getitem__))
    with pytest.raises(ValueError) as raised:  # raised by the caller, not by a row
        for row in rows(["1", "2"], int):
            raise ValueError(f"caller refuses {row}")
    assert str(raised.value) == "caller refuses 1"


def test_prefix_rows_value_is_optional():
    assert prefix_row("10.0.0.0/8") == ((4, 24, 10 << 24), None)
    assert prefix_row("2001:db8::/32 , 64500") == ((6, 96, 0x20010DB8 << 96), 64500)


# -- the prefix table against a brute-force reference -------------------------


@st.composite
def prefixes(draw):
    version = draw(st.sampled_from((4, 6)))
    bits = 32 if version == 4 else 128
    length = draw(st.integers(0, bits))
    network = draw(st.integers(0, (1 << bits) - 1)) >> (bits - length) << (bits - length)
    return (ipaddress.IPv4Network if version == 4 else ipaddress.IPv6Network)((network, length))


def _address(network, offset):
    return str(network.network_address + offset % network.num_addresses)


@given(
    st.lists(st.tuples(prefixes(), st.integers(0, 9)), max_size=12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, (1 << 128) - 1)), max_size=12),
    st.lists(st.one_of(st.ip_addresses(v=4), st.ip_addresses(v=6)), max_size=6),
)
@settings(max_examples=300)
def test_prefix_table_agrees_with_brute_force(entries, inside, outside):
    queries = [str(a) for a in outside]
    queries += [_address(entries[i][0], off) for i, off in inside if i < len(entries)]
    table = PrefixTable((prefix_key(str(net)), value) for net, value in entries)
    blocklist = Blocklist(str(net) for net, _value in entries)
    for address in queries:
        addr = ipaddress.ip_address(address)
        holding = [(net, value) for net, value in entries
                   if net.version == addr.version and addr in net]
        assert blocklist.matches(address) == bool(holding)
        if not holding:
            assert table.lookup(address) is None
            continue
        longest = max(net.prefixlen for net, _value in holding)
        # a later entry for the same prefix replaces the earlier one
        expected = [value for net, value in holding if net.prefixlen == longest][-1]
        assert table.lookup(address) == expected
    assert len(table) == len({net for net, _value in entries})


_V4 = st.integers(0, 2**32 - 1).map(lambda n: str(ipaddress.IPv4Address(n)))
_V6 = st.integers(0, 2**128 - 1).map(lambda n: ipaddress.IPv6Address(n))
_ADDRESSES = st.one_of(
    _V4,
    _V6.map(str),
    _V6.map(lambda a: a.exploded),
    _V4.map(lambda a: "0" + a),  # a leading-zero octet
    _V4.map(lambda a: "::ffff:" + a),
    _V6.map(lambda a: f"{a}%eth0"),  # scoped
    st.sampled_from(["", "10.0.0", "1.2.3.256", "::1::", "fe80::1%", "10.0.0.1 ", "x"]),
)
_MASKS = st.one_of(
    st.integers(0, 140).map(str),
    st.integers(0, 140).map(lambda n: f"0{n}"),  # `/08`
    st.integers(0, 140).map(lambda n: f"{n:04d}"),
    st.integers(0, 40).map(lambda n: f"+{n}"),
    st.integers(0, 40).map(lambda n: f" {n}"),
    st.integers(0, 32).map(lambda n: str(ipaddress.IPv4Network(f"0.0.0.0/{n}").netmask)),
    st.integers(0, 32).map(lambda n: str(ipaddress.IPv4Network(f"0.0.0.0/{n}").hostmask)),
    st.integers(0, 128).map(lambda n: str(ipaddress.IPv6Network(f"::/{n}").netmask)),
    st.sampled_from(["", "-1", "8/8", "８", "٨", "1e1", "8 "]),
)


@given(_ADDRESSES, st.one_of(st.none(), _MASKS))
@settings(max_examples=1000)
def test_prefix_table_reads_prefixes_as_ip_network_does(address, mask):
    prefix = address if mask is None else f"{address}/{mask}"
    try:
        net = ipaddress.ip_network(prefix, strict=False)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as raised:
            prefix_key(prefix)
        assert str(raised.value) == str(exc)
        return
    table = PrefixTable([(prefix_key(prefix), "v")])
    shift = net.max_prefixlen - net.prefixlen
    expected = {4: {}, 6: {}}
    table_bits = int(net.network_address) >> shift
    expected[net.version] = {shift: {table_bits: "v"}}
    assert table._buckets == expected
    if mask is not None and mask.isdigit() and len(mask) <= 3:
        # `address/length` is read without ipaddress
        with mock.patch.object(inputs.ipaddress, "ip_network", side_effect=AssertionError):
            version, host_bits, bits = prefix_key(prefix)
        assert (version, host_bits, bits >> shift) == (net.version, shift, table_bits)


def test_prefix_table_extremes():
    table = PrefixTable((prefix_key(prefix), value) for prefix, value in [
        ("0.0.0.0/0", "v4 default"), ("::/0", "v6 default"),
        ("10.1.2.3/32", "host"), ("2001:db8::1/128", "host6")])
    assert table.lookup("10.1.2.3") == "host"
    assert table.lookup("10.1.2.4") == "v4 default"
    assert table.lookup("2001:db8::1") == "host6"
    assert table.lookup("::ffff:10.1.2.3") == "v6 default"  # families never mix
    assert PrefixTable().lookup("10.0.0.1") is None


# -- one comment rule for every reader ----------------------------------------


def _decorated(text):
    """The same rows with comment lines, inline comments, blank lines and padding."""
    out = ["# leading comment", ""]
    for line in text.splitlines():
        out += [f"  {line}  # inline note", "   ", "#"]
    return "\n".join(out) + "\n"


SNAPSHOT = ScanSnapshot("2021-12", "v4", 80, 0)


def _main_output(argv, path):
    """The --out text of `cli.main(argv)`; an exit 1 with `error: <message>`
    on stderr raises ValueError(<message>), as the command's reader did."""
    out = path.parent / f"{path.name}.out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out", str(out)])
    if code == 1 and err.getvalue().startswith("error: "):
        raise ValueError(err.getvalue().removeprefix("error: ").rstrip("\n"))
    assert code == 0, err.getvalue()
    return out.read_text()


# Each: two good rows, how the program reads a file of them, and a bad row.
READERS = {
    "targets": ("10.0.0.1,80\n2001:db8::1,443\n",
                lambda p: _main_output(["scan", "--dry-run", "--targets", str(p)], p),
                "10.0.0.3,http"),
    "blocklist": (
        "10.0.0.0/8\n2001:db8::/32,64500\n",
        lambda p: [Blocklist.load(p).matches(a) for a in ("10.9.9.9", "2001:db8::5", "192.0.2.1")],
        "10.0.0.0/33",
    ),
    "prefix table": (
        "10.0.0.0/8,64500\n10.1.0.0/16,64501\n",
        lambda p: [EnrichmentTable.load(p).lookup_asn(a) for a in ("10.1.0.1", "10.2.0.1")],
        "10.2.0.0/16",
    ),
    "asn metadata": ("64500,ExampleNet,US,12\n64501,Other,DE,\n",
                     lambda p: EnrichmentTable.load(p.parent / "none.txt", p).asn_meta,
                     "64502,NoCountry"),
    "keys": ("000000000000ffff\naa00000000000001\n",
             lambda p: _main_output(["keys", "--in", str(p)], p), "not a key"),
    "topology": ("path 10.0.0.1 80 true_host(v0,v1)\npath 10.0.0.2 443 mirror tcp_host\n",
                 lambda p: sorted(netsim.load_topology(p).paths),
                 "path 10.0.0.3 80 warp_drive"),
    "service table": ("80,tcp,Web\n8443,tcp,Vendor\n", lambda p: ServiceTables.load(p).registry,
                      "http,tcp,Web"),
    "scan records": (
        "0.000000,10.0.0.1,80,0,potential_capable,00000000000000aa\n"
        '{"address": "10.0.0.2", "classification": "no_response", "port": 443,'
        ' "timestamp": 1.0, "version": 1}\n',
        lambda p: cli._targets_from_scan(str(p), {"potential_capable", "no_response"}),
        "0.5,10.0.0.3,80,0,potential_capable",
    ),
    "trace records": ("10.0.0.1,80,truly_capable,,aa00000000000001\n10.0.0.2,80,unreachable,,\n",
                      lambda p: _main_output(["report", "summary", "--in", str(p)], p),
                      "10.0.0.3,80,truly_capable,x,"),
    "snapshot": ("10.0.0.1,potential_capable,00000000000000aa\n10.0.0.2,no_response,\n",
                 lambda p: SnapshotStore(p.parent)._read(p, SNAPSHOT).records,
                 "10.0.0.3,potential_capable"),
    "report host rows": ("10.0.0.1\n10.0.0.2,443\n10.0.0.3,80,truly_capable,,\n",
                         lambda p: cli._read_address_set(str(p), None),
                         "10.0.0.4,80,truly_capable"),
}


def _write_inputs(directory, text):
    """`input.txt` holding `text`, beside the empty `none.txt` some readers name."""
    directory.mkdir()
    (directory / "none.txt").write_text("")
    (directory / "input.txt").write_text(text)
    return directory / "input.txt"


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_reader_ignores_comments_and_blank_lines(name, tmp_path):
    text, read, _bad = READERS[name]
    plain = _write_inputs(tmp_path / "plain", text)
    decorated = _write_inputs(tmp_path / "decorated", _decorated(text))
    expected = read(plain)
    assert expected  # the plain input is not empty
    assert read(decorated) == expected


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_reader_names_the_file_and_line_of_a_bad_row(name, tmp_path):
    text, read, bad = READERS[name]
    lines = _decorated(text).splitlines()
    lines.insert(5, f"  {bad}  # the bad row, after comment and blank lines")
    path = _write_inputs(tmp_path / "bad", "\n".join(lines) + "\n")
    with pytest.raises(ValueError) as raised:
        read(path)
    assert str(raised.value).startswith(f"{path}: line 6: ")


@pytest.mark.parametrize("argv, text, message", [
    (["top", "--prefixes", "none.txt"], "10.0.0.1,80\n10.0.0.2\n",
     "line 2: report top needs a port on every row, got '10.0.0.2'"),
    (["top", "--prefixes", "none.txt", "--only", "truly_capable"],
     "10.0.0.1,80,truly_capable,,\n10.0.0.2,443\n",
     "line 2: --only needs scan or trace rows, got '10.0.0.2,443'"),
    (["overlap", "--set-b", "none.txt", "--only", "truly_capable"],
     "# scan rows\n0.5,10.0.0.1,80,0,potential_capable,\n10.0.0.2\n",
     "line 3: --only needs scan or trace rows, got '10.0.0.2'"),
])
def test_report_row_checks_name_their_line(argv, text, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = _write_inputs(tmp_path / "in", text)
    (tmp_path / "none.txt").write_text("")
    flag = "--set-a" if argv[0] == "overlap" else "--in"
    with pytest.raises(ValueError) as raised:
        _main_output(["report", *argv, flag, str(path)], path)
    assert str(raised.value) == f"{path}: {message}"


NOT_AN_ADDRESS = "'10.0.0.x' does not appear to be an IPv4 or IPv6 address"
TRACE_FROM_SCAN = ["trace", "--sim-topology", "none.txt", "--from-scan"]


@pytest.mark.parametrize("argv, row, message", [
    (["scan", "--dry-run", "--targets"], "10.0.0.x,80", NOT_AN_ADDRESS),
    (TRACE_FROM_SCAN, "0.5,10.0.0.x,80,0,potential_capable,", NOT_AN_ADDRESS),
    (TRACE_FROM_SCAN, "0.5,10.0.0.1,70000,0,potential_capable,", "port out of range: 70000"),
    (["report", "top", "--prefixes", "none.txt", "--in"], "10.0.0.x,80,truly_capable,,",
     NOT_AN_ADDRESS),
    (["report", "overlap", "--set-b", "none.txt", "--set-a"], "10.0.0.x", NOT_AN_ADDRESS),
])
def test_a_row_that_names_no_target_names_its_line(argv, row, message, tmp_path, monkeypatch):
    # Checked as the row is read, not later by the probe, blocklist or prefix lookup.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "none.txt").write_text("")
    path = _write_inputs(tmp_path / "in", f"# rows\n{row}\n")
    with pytest.raises(ValueError) as raised:
        _main_output([*argv, str(path)], path)
    assert str(raised.value) == f"{path}: line 2: {message}"


@pytest.mark.parametrize("row", [
    "0.5,10.0.0.1,80,7,potential_capable,",
    '{"address": "10.0.0.1", "classification": "potential_capable", "port": 80,'
    ' "timestamp": 0.5, "version": 7}',
])
def test_a_scan_row_of_another_version_names_its_line(row, tmp_path, capsys):
    # Filed, it would make a snapshot `2026-01_v4_80_7` that no report reads.
    path = _write_inputs(tmp_path / "in", f"# rows\n0.5,10.0.0.2,80,1,no_response,\n{row}\n")
    store = tmp_path / "store"
    argv = ["report", "ingest", "--store", str(store), "--date", "2026-01", "--in", str(path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: line 3: version must be 0 or 1, got 7\n"
    assert not list(store.glob("*"))


SCAN_JSON = {"address": "10.0.0.1", "classification": "potential_capable", "port": 80,
             "timestamp": 0.5, "version": 1}


@pytest.mark.parametrize("field, value, message", [
    ("port", 80.9, "port and version must be integers, got 80.9, 1"),
    ("port", True, "port and version must be integers, got True, 1"),
    ("port", "80", "port and version must be integers, got '80', 1"),
    ("version", True, "port and version must be integers, got 80, True"),
    ("version", 1.0, "port and version must be integers, got 80, 1.0"),
    ("timestamp", "nan", "timestamp must be a number, got 'nan'"),
    ("timestamp", True, "timestamp must be a number, got True"),
    ("timestamp", None, "timestamp must be a number, got None"),
    # got_version and note as the scanner writes them: null, 0 or 1, and null or text.
    ("got_version", "abc", "got_version must be null, 0 or 1, got 'abc'"),
    ("got_version", 2, "got_version must be null, 0 or 1, got 2"),
    ("got_version", True, "got_version must be null, 0 or 1, got True"),
    ("got_version", 1.0, "got_version must be null, 0 or 1, got 1.0"),
    ("note", 5, "note must be null or a string, got 5"),
    ("note", ["reset"], "note must be null or a string, got ['reset']"),
])
def test_a_jsonl_scan_field_of_another_type_names_its_line(field, value, message, tmp_path,
                                                          capsys):
    # The CSV form refuses these as it reads them; the JSON form coerced them.
    row = json.dumps({**SCAN_JSON, field: value}, sort_keys=True)
    path = _write_inputs(tmp_path / "in", f"# rows\n{json.dumps(SCAN_JSON)}\n{row}\n")
    assert cli.main(["keys", "--from-scan", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 3: bad scan record (TypeError({message!r})): {row!r}\n")


SCAN_ROW = "0.5,10.0.0.2,80,0,no_response,"
TRACE_ROW = "10.0.0.2,80,truly_capable,,"
INGEST = ["report", "ingest", "--store", "store", "--date", "2026-01", "--in"]


@pytest.mark.parametrize("argv, first, row, message", [
    (INGEST, SCAN_ROW, "0.5,10.0.0.1,80,0,banana,", "unknown classification 'banana'"),
    (INGEST, SCAN_ROW, json.dumps({**SCAN_JSON, "classification": "banana"}),
     "unknown classification 'banana'"),
    (["keys", "--from-scan"], SCAN_ROW, "0.5,10.0.0.1,80,0,truly_capable,ab",
     "unknown classification 'truly_capable'"),  # a trace verdict
    (["report", "summary", "--in"], TRACE_ROW, "10.0.0.1,80,banana,,",
     "unknown verdict 'banana'"),
    (["report", "top", "--prefixes", "none.txt", "--in"], TRACE_ROW,
     "10.0.0.1,80,potential_capable,,", "unknown verdict 'potential_capable'"),  # a scan label
    (["report", "overlap", "--set-b", "none.txt", "--set-a"], SCAN_ROW,
     "0.5,10.0.0.1,80,0,dry-run,", "unknown classification 'dry-run'"),
])
def test_a_label_the_program_never_writes_names_its_line(argv, first, row, message, tmp_path,
                                                         monkeypatch, capsys):
    # Filed, `banana` would be a class of host in a snapshot that no report knows.
    monkeypatch.chdir(tmp_path)
    path = _write_inputs(tmp_path / "in", f"# rows\n{first}\n{row}\n")
    (tmp_path / "none.txt").write_text("")
    assert cli.main([*argv, str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: line 3: {message}\n"
    assert not (tmp_path / "store").exists()


def test_every_label_the_program_writes_reads_back():
    from mptcpkit.probe import SCAN_LABELS, ClassificationKind
    from mptcpkit.store import HostRecord
    from mptcpkit.tracer import TRACE_VERDICTS, PathVerdictKind, TraceRecord

    assert SCAN_LABELS == {k.value for k in ClassificationKind} | {"skipped", "dry_run", "error"}
    assert TRACE_VERDICTS == {k.value for k in PathVerdictKind} | {"skipped", "error"}
    for label in SCAN_LABELS:
        assert CampaignRecord.parse(f"0.5,10.0.0.1,80,1,{label},").label == label
        row = json.dumps({**SCAN_JSON, "classification": label})
        assert CampaignRecord.parse(row).label == label
    for verdict in TRACE_VERDICTS:
        assert TraceRecord.from_csv(f"10.0.0.1,80,{verdict},,").verdict == verdict
    for label in SCAN_LABELS:
        assert HostRecord.from_line(f"10.0.0.1,{label},\n").classification == label


TTL_ONLY_ON_AFFECTED = "a TTL in [1, 64] is only on a middlebox_affected row, got"
KEY_ONLY_ON_CAPABLE = "a key is only on a truly_capable row, got"


@pytest.mark.parametrize("row, message", [
    ("10.0.0.1,80,truly_capable,-3,", "TTL must be ASCII digits, got '-3'"),
    ("10.0.0.1,80,unreachable,0,00000000000000ff", f"{TTL_ONLY_ON_AFFECTED} '0' on unreachable"),
    ("10.0.0.1,80,not_capable,5,", f"{TTL_ONLY_ON_AFFECTED} '5' on not_capable"),
    ("10.0.0.1,80,middlebox_affected,999,", f"{TTL_ONLY_ON_AFFECTED} '999' on middlebox_affected"),
    ("10.0.0.1,80,middlebox_affected,0,", f"{TTL_ONLY_ON_AFFECTED} '0' on middlebox_affected"),
    ("10.0.0.1,80,unreachable,,00000000000000ff",
     f"{KEY_ONLY_ON_CAPABLE} '00000000000000ff' on unreachable"),
    ("10.0.0.1,80,middlebox_affected,3,00000000000000ff",
     f"{KEY_ONLY_ON_CAPABLE} '00000000000000ff' on middlebox_affected"),
])
def test_a_trace_row_the_program_never_writes_names_its_line(row, message, tmp_path, capsys):
    # `classify_path` gives a TTL only to a middlebox_affected verdict and a
    # key only to a truly_capable one, and a trace walks TTLs 1 to 64.
    path = _write_inputs(tmp_path / "in", f"# rows\n{TRACE_ROW}\n{row}\n")
    assert cli.main(["report", "summary", "--in", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: line 3: {message}\n"


@pytest.mark.parametrize("row", ["10.0.0.1,80,middlebox_affected,1,",
                                 "10.0.0.1,80,middlebox_affected,64,",
                                 "10.0.0.1,80,truly_capable,,00000000000000ff"])
def test_every_trace_row_the_program_writes_reads_back(row):
    from mptcpkit.tracer import TraceRecord

    assert TraceRecord.from_csv(row).to_csv() == row


@pytest.mark.parametrize("row, message", [
    ("10.0.0.x,potential_capable,", NOT_AN_ADDRESS),
    ("10.0.0.1,banana,", "unknown classification 'banana'"),
    ("10.0.0.1,truly_capable,", "unknown classification 'truly_capable'"),  # a trace verdict
])
def test_a_snapshot_row_the_program_never_writes_names_its_line(row, message, tmp_path,
                                                                capsys):
    store = tmp_path / "store"
    store.mkdir()
    path = store / "2026-01_v4_80_0"
    path.write_text(f"# snapshot 2026-01 v4 port=80 version=0\n10.0.0.2,potential_capable,\n"
                    f"{row}\n")
    argv = ["report", "consistent", "--store", str(store), "--at", "2026-01", "--window", "1"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: line 3: {message}\n"


@pytest.mark.parametrize("timestamp", [0, 0.5, 1e300])
def test_a_jsonl_scan_row_takes_any_json_number_as_its_timestamp(timestamp):
    record = CampaignRecord.parse(json.dumps({**SCAN_JSON, "timestamp": timestamp}))
    assert (record.timestamp, record.port, record.version) == (timestamp, 80, 1)
    assert type(record.timestamp) is float


def test_a_file_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "targets.txt"
    path.write_bytes(b"10.0.0.1,80\n\xff\n")
    with pytest.raises(ValueError, match=f"^{path}: 'utf-8' codec can't decode"):
        list(inputs.read_rows(path, target_row))


# -- one owner per row rule: what the writers emit reads back, nothing else ---

ADDRESSES = st.ip_addresses().map(str)
PORTS = st.integers(0, 65535)
TIMESTAMPS = st.floats(min_value=0, allow_nan=False, allow_infinity=False)
KEYS = st.integers(0, 2**64 - 1).map(Key)


@st.composite
def scan_records(draw, jsonl):
    """A record `run_campaign` can yield, with its timestamp as the CSV or
    JSONL form keeps it, and the got_version and note only JSONL keeps."""
    label = draw(st.sampled_from(sorted(SCAN_LABELS)))
    key = draw(st.none() | KEYS) if label in KEYED_LABELS else None
    timestamp = draw(TIMESTAMPS)
    got_version = note = None
    if jsonl:
        timestamp = round(timestamp, 6)
        got_version = draw(st.sampled_from([None, 0, 1]))
        note = draw(st.none() | st.text(max_size=20))
    else:
        timestamp = float(f"{timestamp:.6f}")
    return CampaignRecord(timestamp, draw(ADDRESSES), draw(PORTS), draw(st.sampled_from([0, 1])),
                          label, key, got_version, note)


@st.composite
def trace_records(draw):
    """A record `trace_campaign` can yield: a TTL, if any, on a
    middlebox_affected row, a key, if any, on a truly_capable one."""
    verdict = draw(st.sampled_from(sorted(TRACE_VERDICTS)))
    ttl = draw(st.none() | st.integers(1, MAX_TTL)) if verdict == "middlebox_affected" else None
    key = draw(st.none() | KEYS) if verdict == "truly_capable" else None
    return TraceRecord(draw(ADDRESSES), draw(PORTS), verdict, ttl, key)


@st.composite
def host_records(draw):
    """A snapshot record `report ingest` files from a scan record."""
    label = draw(st.sampled_from(sorted(SCAN_LABELS)))
    key = draw(st.none() | KEYS) if label in KEYED_LABELS else None
    return HostRecord(draw(ADDRESSES), label, key)


# Each: the records a writer takes, the writer, and the reader of its rows.
WRITTEN_ROWS = {
    "scan csv": (scan_records(jsonl=False), CampaignRecord.to_csv, CampaignRecord.parse),
    "scan jsonl": (scan_records(jsonl=True), CampaignRecord.to_json, CampaignRecord.parse),
    "trace": (trace_records(), TraceRecord.to_csv, TraceRecord.from_csv),
    "snapshot": (host_records(), HostRecord.to_line, HostRecord.from_line),
    "target": (st.tuples(ADDRESSES, PORTS), "{0[0]},{0[1]}".format, target_row),  # `simulate`
}


@pytest.mark.parametrize("kind", sorted(WRITTEN_ROWS))
@given(data=st.data())
@settings(max_examples=200)
def test_every_row_the_program_writes_reads_back_equal(kind, data):
    records, write, read = WRITTEN_ROWS[kind]
    record = data.draw(records)
    assert read(write(record)) == record


def _other_digits(text):
    """`text` with each ASCII digit written as an Arabic-Indic one, which `int` reads."""
    return text.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))


def _integer_forms(digits, padded):
    """Forms of the integer field `digits` that no writer emits: a sign, a `_`,
    an inner space, another script's digits, and, unless spaces may pad the
    field (as in a target row), a space around it. `int` reads all but the
    inner space."""
    forms = ["+" + digits, "-" + digits, "0_" + digits, _other_digits(digits),
             f"{digits[0]} {digits[1:] or 0}"]
    return forms + ([] if padded else [" " + digits, digits + " "])


def _replaced(row, index, text):
    fields = row.split(",")
    fields[index] = text
    return ",".join(fields)


KEY = "00000000000000ff"
# Forms of a written key that `int(text, 16)` takes and no writer emits.
KEY_FORMS = ("0x00000000000000ff", "ff_ff", " ff", "FF", "+ff")
SCAN_RECORD = CampaignRecord(0.5, "10.0.0.1", 80, 1, "potential_capable", Key(int(KEY, 16)))
# Each: a row as the program writes it, and the reader of its kind.
WRITTEN = {
    "scan csv": (SCAN_RECORD.to_csv(), CampaignRecord.parse),
    "scan jsonl": (SCAN_RECORD.to_json(), CampaignRecord.parse),
    "trace": (TraceRecord("10.0.0.1", 80, "middlebox_affected", 5).to_csv(), TraceRecord.from_csv),
    "target": ("10.0.0.1,80", target_row),
    "snapshot": (f"10.0.0.1,potential_capable,{KEY}", HostRecord.from_line),
}
# The indexes of the integer fields of each CSV kind, and whether spaces may pad them.
INTEGER_FIELDS = {"scan csv": ((2, 3), False), "trace": ((1, 3), False), "target": ((1,), True)}


def _refused_rows():
    """(kind, row) for each row one rule refuses: an integer field in a form
    no writer emits, a timestamp that is not finite and >= 0 or not digits
    with at most one `.`, a key on a label that never carries one or in a
    form no writer emits, and a target address with a `,`."""
    for kind, (indexes, padded) in INTEGER_FIELDS.items():
        row = WRITTEN[kind][0]
        for index in indexes:
            for form in _integer_forms(row.split(",")[index], padded):
                yield kind, _replaced(row, index, form)
    scan_csv, scan_json = WRITTEN["scan csv"][0], WRITTEN["scan jsonl"][0]
    for form in ("nan", "inf", "-inf", "-1.0", "-1e3", "1e3", "0_5", _other_digits("0.5"),
                 "0.5.0", "", "0.5 "):  # the row is stripped, not its fields
        yield "scan csv", _replaced(scan_csv, 0, form)
    for form in ("+80", "0_80", _other_digits("80")):
        yield "scan jsonl", scan_json.replace('"port": 80', f'"port": {form}')
    for form in ("NaN", "Infinity", "-Infinity", "-1.0", "-1000"):
        yield "scan jsonl", scan_json.replace('"timestamp": 0.5', f'"timestamp": {form}')
    for label in sorted(SCAN_LABELS - KEYED_LABELS):
        yield "scan csv", f"0.5,10.0.0.1,80,0,{label},{KEY}"
        yield "scan jsonl", json.dumps({**SCAN_JSON, "classification": label, "sender_key": KEY})
        yield "snapshot", f"10.0.0.1,{label},{KEY}"
    for verdict in sorted(TRACE_VERDICTS - {"truly_capable"}):
        yield "trace", f"10.0.0.1,80,{verdict},,{KEY}"
    for form in KEY_FORMS:
        yield "scan csv", _replaced(scan_csv, 5, form)
        yield "scan jsonl", json.dumps({**SCAN_JSON, "sender_key": form})
        yield "trace", f"10.0.0.1,80,truly_capable,,{form}"
        yield "snapshot", f"10.0.0.1,potential_capable,{form}"
    yield "target", "fe80::1%a,b,80"  # a scan row could not hold it
    yield "scan jsonl", json.dumps({**SCAN_JSON, "address": "fe80::1%a,b"})


REFUSED_ROWS = list(_refused_rows())


@pytest.mark.parametrize("kind, row", REFUSED_ROWS,
                         ids=[f"{kind}:{row}" for kind, row in REFUSED_ROWS])
def test_a_row_no_writer_emits_is_refused_with_its_line(kind, row):
    good, read = WRITTEN[kind]
    assert list(rows([good], read))  # the row as written reads
    with pytest.raises(ValueError, match=r"^line 3: "):
        list(rows([good, "# the row no writer emits", row], read))


@pytest.mark.parametrize("row", [f"0.5,10.0.0.{i},80,0,no_response,{KEY}" for i in (1, 2)]
                         + [json.dumps({**SCAN_JSON, "classification": "no_response",
                                        "sender_key": KEY})])
@pytest.mark.parametrize("argv", [["keys", "--from-scan"], INGEST])
def test_a_scan_row_with_a_key_no_reply_gave_exits_1(argv, row, tmp_path, monkeypatch, capsys):
    # `keys --from-scan` would count the key of a host that never answered,
    # and `report ingest` file it into the store.
    monkeypatch.chdir(tmp_path)
    path = _write_inputs(tmp_path / "in", f"# rows\n{SCAN_ROW}\n{row}\n")
    assert cli.main([*argv, str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 3: a key is only on a mirrored_key or potential_capable row, "
        f"got '{KEY}' on no_response\n")
    assert not (tmp_path / "store").exists()


def test_a_snapshot_row_with_a_key_no_reply_gave_exits_1(tmp_path, capsys):
    store = tmp_path / "store"
    store.mkdir()
    path = store / "2026-01_v4_80_0"
    path.write_text(f"# snapshot 2026-01 v4 port=80 version=0\n10.0.0.2,potential_capable,\n"
                    f"10.0.0.1,no_response,{KEY}\n")
    argv = ["report", "consistent", "--store", str(store), "--at", "2026-01", "--window", "1"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 3: a key is only on a mirrored_key or potential_capable row, "
        f"got '{KEY}' on no_response\n")


def test_a_trace_row_with_a_sign_and_an_underscore_exits_1(tmp_path, capsys):
    # `int` reads it as port 80 and TTL 5.
    path = _write_inputs(tmp_path / "in",
                         f"# rows\n{TRACE_ROW}\n10.0.0.1,+80,middlebox_affected,0_5,\n")
    assert cli.main(["report", "summary", "--in", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 3: TTL must be ASCII digits, got '0_5'\n")
    path.write_text(f"# rows\n{TRACE_ROW}\n10.0.0.1,+80,middlebox_affected,5,\n")
    assert cli.main(["report", "summary", "--in", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 3: port must be ASCII digits, got '+80'\n")


@pytest.mark.parametrize("row, message", [
    ("nan,10.0.0.1,80,0,no_response,", "timestamp must be digits with at most one '.', got 'nan'"),
    ("-1e3,10.0.0.1,80,0,no_response,",
     "timestamp must be digits with at most one '.', got '-1e3'"),
    ('{"address": "10.0.0.1", "classification": "no_response", "port": 80, "timestamp": NaN,'
     ' "version": 0}', "timestamp must be finite and >= 0, got nan"),
])
def test_a_scan_timestamp_no_writer_emits_exits_1(row, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = _write_inputs(tmp_path / "in", f"# rows\n{SCAN_ROW}\n{row}\n")
    assert cli.main([*INGEST, str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: line 3: {message}\n"
    assert not (tmp_path / "store").exists()


def test_a_target_port_of_other_digits_exits_1(tmp_path, capsys):
    path = _write_inputs(tmp_path / "in", "# targets\n10.0.0.2,80\n10.0.0.1,٨٠\n")
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", "--dry-run", "--targets", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 3: port must be ASCII digits, got '٨٠'\n")
    assert not out.exists()


def test_a_quote_size_of_other_digits_exits_1(tmp_path, capsys):
    topology = tmp_path / "topology.txt"
    topology.write_text("# paths\npath 10.0.0.2 80 quoting(9) tcp_host\n"
                        "path 10.0.0.1 80 quoting(٩) tcp_host\n")
    targets = _write_inputs(tmp_path / "in", "10.0.0.1,80\n")
    assert cli.main(["scan", "--sim-topology", str(topology), "--targets", str(targets)]) == 1
    assert capsys.readouterr().err == (
        f"error: {topology}: line 3: quote size must be ASCII digits, got '٩'\n")
    with pytest.raises(ValueError, match=r"^line 1: quote size must be ASCII digits, got '٩'$"):
        netsim.parse_topology(["path 10.0.0.1 80 quoting(٩) tcp_host"])


# -- written keys, `:g` latencies, targets without `,`, table integers ---------

# Forms of a latency that `float` takes and `topology_lines` never writes.
LATENCY_FORMS = ("1_0", "+2", "٣")
# Forms of a table integer that `int` takes: a sign, a `_`, another script's digit.
TABLE_INTEGER_FORMS = ("+5", "5_0", "٥")


def _near_keys(text):
    """16-character forms of the written key `text` that `int(text, 16)`
    reads as the same key or another: `0x`, a `_`, a space, a sign, capitals."""
    forms = ["0x" + text[2:], text[:7] + "_" + text[8:], " " + text[1:], "+" + text[1:]]
    return forms + ([text.upper()] if text.upper() != text else [])


@given(KEYS)
@settings(max_examples=300)
def test_a_written_key_reads_back_and_no_near_form_does(key):
    assert Key.from_row(key.hex) == key
    for form in _near_keys(key.hex):
        Key.from_hex(form)  # a typed key may take this form
        with pytest.raises(ValueError, match=r"^key must be 16 lowercase hex digits, got "):
            Key.from_row(form)
        with pytest.raises(ValueError, match=r"^line 1: key must be 16 lowercase hex digits"):
            list(rows([f"10.0.0.1,80,truly_capable,,{form}"], TraceRecord.from_csv))


def _latency_of(line):
    (path,) = netsim.parse_topology([line]).paths.values()
    return path.per_hop_latency_ms


@given(st.floats(min_value=0, allow_infinity=False))
@settings(max_examples=300)
def test_a_g_latency_reads_back_and_no_near_form_does(latency):
    text = f"{latency:g}"  # as `topology_lines` writes it
    line = f"path 10.0.0.1 80 latency={text} tcp_host"
    assert _latency_of(line) == float(text)
    (written,) = netsim.topology_lines(netsim.parse_topology([line]))
    assert _latency_of(written) == float(text)
    forms = ["+" + text, _other_digits(text)]
    if text[1:2].isdigit():
        forms.append(f"{text[0]}_{text[1:]}")
    for form in forms:
        assert float(form) == float(text)  # `float` alone would read it
        with pytest.raises(ValueError, match=r"^line 1: latency must be finite and >= 0, in "):
            netsim.parse_topology([f"path 10.0.0.1 80 latency={form} tcp_host"])


# Each: a good row of a hand-written table, and its reader.
TABLES = {
    "blocklist": ("10.9.0.0/16,64500", prefix_row),
    "prefix table": ("10.9.0.0/16,64500", prefix_asn_row),
    "asn metadata": ("64500,ExampleNet,US,12", asn_meta_row),
    "service table": ("80,tcp,Web", service_row),
}
# Each: a table, a row of it with `{}` for an integer field, and that field's name.
TABLE_INTEGERS = [
    ("blocklist", "10.0.0.0/8,{}", "asn"),
    ("prefix table", "10.0.0.0/8,{}", "asn"),
    ("asn metadata", "{},Other,DE,", "asn"),
    ("asn metadata", "64501,Other,DE,{}", "rank"),
    ("service table", "{},tcp,Vendor", "port"),
]


@pytest.mark.parametrize("form", TABLE_INTEGER_FORMS)
@pytest.mark.parametrize("kind, row, name", TABLE_INTEGERS)
def test_a_table_integer_no_rule_takes_names_its_line(kind, row, name, form):
    good, read = TABLES[kind]
    assert list(rows([good], read))
    with pytest.raises(ValueError) as raised:
        list(rows([good, "# the refused row", row.format(form)], read))
    assert str(raised.value) == f"line 3: {name} must be ASCII digits, got {form!r}"


# Each: a table, a row of it that no rule takes, and the message after `line N: `.
TABLE_REFUSALS = [
    ("service table", "70000,tcp,X", "port must be at most 65535, got '70000'"),
    ("asn metadata", "99999999999,Org,US,", "asn must be at most 4294967295, got '99999999999'"),
    ("prefix table", "10.0.0.0/8,99999999999",
     "asn must be at most 4294967295, got '99999999999'"),
    ("blocklist", "10.0.0.0/8,4294967296", "asn must be at most 4294967295, got '4294967296'"),
    ("asn metadata", "64502,NoCountry", "expected asn,org,country,rank, got '64502,NoCountry'"),
    ("asn metadata", "64502,Org,US,1,2", "expected asn,org,country,rank, got '64502,Org,US,1,2'"),
    ("service table", "80,tcp", "expected port,protocol,label, got '80,tcp'"),
]


@pytest.mark.parametrize("kind, row, message", TABLE_REFUSALS)
def test_a_table_row_out_of_range_or_of_another_shape_names_its_line(kind, row, message):
    good, read = TABLES[kind]
    with pytest.raises(ValueError) as raised:
        list(rows([good, "# the refused row", row], read))
    assert str(raised.value) == f"line 3: {message}"


def test_table_integers_read_up_to_their_limits_and_a_label_may_hold_commas():
    assert service_row("65535,tcp,Last") == (65535, "Last")
    assert asn_meta_row("4294967295,Org,US,") == (4294967295, ("Org", "US", None))
    assert prefix_row("10.0.0.0/8,4294967295")[1] == 4294967295
    assert service_row("80,tcp,Web, Proxy") == (80, "Web, Proxy")
    assert service_row("80,udp,Web") is None


@pytest.mark.parametrize("latency", LATENCY_FORMS)
def test_a_latency_no_writer_emits_names_its_line(latency):
    with pytest.raises(ValueError) as raised:
        netsim.parse_topology(["path 10.0.0.2 80 latency=2 tcp_host", "# the refused row",
                               f"path 10.0.0.1 80 latency={latency} tcp_host"])
    assert str(raised.value) == ("line 3: latency must be finite and >= 0, in ASCII that "
                                 f"starts with a digit, no '_', got {latency!r}")


def test_hand_written_table_fields_may_be_padded():
    assert prefix_row(" 10.0.0.0/8 ,  64500 ")[1] == 64500
    assert asn_meta_row(" 64500 , Org , US , 12 ") == (64500, ("Org", "US", 12))
    assert asn_meta_row("64500,Org,US,  ") == (64500, ("Org", "US", None))
    assert service_row(" 8443 ,tcp, Vendor ") == (8443, "Vendor")


def _cli_refusals():
    """(argv, the file the refused row is in, its good row, the refused row,
    message); `{bad}` in argv is that file, `{targets}` a target list,
    `{none}` an empty file and `{store}` the snapshot store."""
    yield (["scan", "--dry-run", "--targets", "{bad}"], "targets.txt", "10.0.0.2,80",
           "fe80::1%a,b,80", "address must hold no ',', got 'fe80::1%a,b'")
    for form in LATENCY_FORMS:
        yield (["scan", "--sim-topology", "{bad}", "--targets", "{targets}"], "topology.txt",
               "path 10.0.0.2 80 tcp_host", f"path 10.0.0.1 80 latency={form} tcp_host",
               f"latency must be finite and >= 0, in ASCII that starts with a digit, no '_', "
               f"got {form!r}")
    snapshot = ["report", "consistent", "--store", "{store}", "--at", "2026-01", "--window", "1"]
    for form in KEY_FORMS:
        message = f"key must be 16 lowercase hex digits, got {form!r}"
        yield (["keys", "--from-scan", "{bad}"], "scan.csv", SCAN_ROW,
               f"0.5,10.0.0.1,80,1,potential_capable,{form}", message)
        yield (["report", "summary", "--in", "{bad}"], "trace.csv", TRACE_ROW,
               f"10.0.0.1,80,truly_capable,,{form}", message)
        yield (snapshot, "store/2026-01_v4_80_0", "10.0.0.2,potential_capable,",
               f"10.0.0.1,potential_capable,{form}", message)
    top = ["report", "top", "--in", "{targets}", "--prefixes"]
    commands = {  # each table's command line and file
        "blocklist": (["scan", "--dry-run", "--targets", "{targets}", "--blocklist", "{bad}"],
                      "blocklist.txt"),
        "prefix table": ([*top, "{bad}"], "prefixes.csv"),
        "asn metadata": ([*top, "{none}", "--asn-meta", "{bad}"], "meta.csv"),
        "service table": (["analyze-pcap", "--in", "{none}", "--services", "{bad}"],
                          "services.csv"),
    }
    for kind, row, name in TABLE_INTEGERS:
        argv, file = commands[kind]
        for form in TABLE_INTEGER_FORMS:
            yield (argv, file, TABLES[kind][0], row.format(form),
                   f"{name} must be ASCII digits, got {form!r}")
    for kind, row, message in TABLE_REFUSALS:
        argv, file = commands[kind]
        yield argv, file, TABLES[kind][0], row, message


CLI_REFUSALS = list(_cli_refusals())


@pytest.mark.parametrize("argv, name, good, row, message", CLI_REFUSALS,
                         ids=[f"{case[0][0]}:{case[1]}:{case[3]}" for case in CLI_REFUSALS])
def test_a_key_latency_target_or_table_integer_no_rule_takes_exits_1(argv, name, good, row,
                                                                    message, tmp_path,
                                                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    paths = {"bad": tmp_path / name, "targets": tmp_path / "targets.txt",
             "none": tmp_path / "none.txt", "store": tmp_path / "store"}
    paths["targets"].write_text("10.0.0.1,80\n")
    paths["none"].write_text("")
    paths["store"].mkdir()
    bad = paths["bad"]
    bad.write_text(f"# rows\n{good}\n{row}\n", encoding="utf-8")  # may replace the targets
    assert cli.main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 3: {message}\n"


# -- arbitrary text: ValueError or nothing ------------------------------------

SCAN_FIELDS = ("timestamp", "address", "port", "version", "classification", "sender_key")
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=20),
    st.lists(st.integers(), max_size=2),
)
ROWS = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="0123456789abcdef.,:/{}[]\"# -_xX\t", max_size=60),
    st.lists(st.sampled_from(["10.0.0.1", "::1", "80", "1", "0.5", "", "ff", "x", "10.0.0.0/8",
                              "truly_capable", "-1", "1e999", "0x1f", " 7 "]),
             max_size=7).map(",".join),
    st.dictionaries(st.sampled_from(SCAN_FIELDS), JSON_VALUES).map(json.dumps),
    st.lists(st.sampled_from(["path", "10.0.0.1", "80", "latency=1", "latency=x", "tcp_host",
                              "true_host(v0)", "mirror", "key_rewrite(seed=1)", "quoting(9)",
                              "drop", "x("]), max_size=6).map(" ".join),
)


def _exit_code(argv):
    """The exit code of `cli.main(argv)`, with its stderr dropped; 0 or 1."""
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1)


# Each takes the path of a file holding the text and reads it the way the
# program does; any exception but ValueError fails the test.
TEXT_READERS = {
    "scan": lambda p: cli._targets_from_scan(str(p), {"potential_capable"}),
    "trace": lambda p: _exit_code(["report", "summary", "--in", str(p), "--out", f"{p}.out"]),
    "host rows": lambda p: cli._read_address_set(str(p), None),
    "labelled host rows": lambda p: cli._read_address_set(str(p), "truly_capable"),
    "top host rows": lambda p: _exit_code(["report", "top", "--in", str(p), "--prefixes",
                                           str(p), "--out", f"{p}.out"]),
    "targets": lambda p: list(inputs.read_rows(p, target_row)),
    "keys": lambda p: _exit_code(["keys", "--in", str(p), "--out", f"{p}.out"]),
    "blocklist": lambda p: Blocklist.load(p).matches("10.0.0.1"),
    "prefix table": lambda p: EnrichmentTable.load(p).lookup_asn("2001:db8::1"),
    "asn metadata": lambda p: EnrichmentTable.load(p.parent / "none.txt", p),
    "topology": netsim.load_topology,
    "service table": ServiceTables.load,
    "snapshot": lambda p: SnapshotStore(p.parent)._read(p, SNAPSHOT),
}


@given(st.lists(ROWS, max_size=4))
@settings(max_examples=300, deadline=None)
def test_readers_raise_only_value_error(text_rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text("\n".join(text_rows), encoding="utf-8")
        (Path(tmp) / "none.txt").write_text("")
        for read in TEXT_READERS.values():
            try:
                read(path)
            except ValueError:
                pass


def test_load_targets_names_the_format(tmp_path):
    path = tmp_path / "targets.txt"
    path.write_text("# targets\n10.0.0.1\n")
    with pytest.raises(ValueError, match=f"^{path}: line 2: expected address,port"):
        list(inputs.read_rows(path, target_row))


def test_prefix_table_file_needs_an_asn(tmp_path):
    prefixes = tmp_path / "prefixes.csv"
    prefixes.write_text("10.0.0.0/8\n")
    with pytest.raises(ValueError, match="expected prefix,asn"):
        EnrichmentTable.load(prefixes)


# -- one reader: no other module opens a text input ---------------------------


def _reads_a_file(module: str, call: ast.Call) -> bool:
    """Whether `call` opens a file for reading: `open(...)` in a mode that does
    not write (a mode not spelled out counts as reading), `read_text` or
    `read_bytes`. `pcapio` may open its binary captures."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("read_text", "read_bytes"):
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    if not isinstance(mode, ast.Constant):
        return True
    if module == "pcapio" and "b" in mode.value:
        return False
    return not set(mode.value) & set("wxa")


def test_only_inputs_opens_a_file_for_reading():
    package = Path(inputs.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "inputs":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _reads_a_file(path.stem, node):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
