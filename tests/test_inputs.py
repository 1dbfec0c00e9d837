"""The shared comment rule, the longest-prefix table and every text reader."""

import ipaddress
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptcpkit import cli, keystats, netsim
from mptcpkit.flows import ServiceTables
from mptcpkit.inputs import PrefixTable, _prefix_key, data_lines, prefix_rows
from mptcpkit.probe import Blocklist, load_targets
from mptcpkit.store import EnrichmentTable, ScanSnapshot, SnapshotStore


def test_data_lines_cuts_comments_and_skips_blanks():
    lines = ["# header", "", "   ", "a,1  # inline", "\tb,2\n", "#", "c # x # y"]
    assert list(data_lines(lines)) == ["a,1", "b,2", "c"]


def test_prefix_rows_value_is_optional():
    assert list(prefix_rows(["10.0.0.0/8", " 2001:db8::/32 , 64500 # six"])) == [
        ("10.0.0.0/8", None),
        ("2001:db8::/32", 64500),
    ]


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
    table = PrefixTable((str(net), value) for net, value in entries)
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
            PrefixTable().add(prefix, "v")
        assert str(raised.value) == str(exc)
        return
    table = PrefixTable([(prefix, "v")])
    shift = net.max_prefixlen - net.prefixlen
    expected = {4: {}, 6: {}}
    expected[net.version] = {shift: {int(net.network_address) >> shift: "v"}}
    assert table._buckets == expected
    if mask is not None and mask.isdigit() and len(mask) <= 3:
        assert _prefix_key(prefix) is not None  # `address/length` skips ipaddress


def test_prefix_table_extremes():
    table = PrefixTable([("0.0.0.0/0", "v4 default"), ("::/0", "v6 default"),
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
READERS = {
    "targets": ("10.0.0.1,80\n2001:db8::1,443\n", cli._read_targets),
    "blocklist": (
        "10.0.0.0/8\n2001:db8::/32,64500\n",
        lambda p: [Blocklist.load(p).matches(a) for a in ("10.9.9.9", "2001:db8::5", "192.0.2.1")],
    ),
    "prefix table": (
        "10.0.0.0/8,64500\n10.1.0.0/16,64501\n",
        lambda p: [EnrichmentTable.load(p).lookup_asn(a) for a in ("10.1.0.1", "10.2.0.1")],
    ),
    "asn metadata": ("64500,ExampleNet,US,12\n64501,Other,DE,\n",
                     lambda p: EnrichmentTable.load(p.parent / "none.txt", p).asn_meta),
    "keys": ("000000000000ffff\naa00000000000001\n",
             lambda p: keystats.read_keys(p.read_text().splitlines(keepends=True))),
    "topology": ("path 10.0.0.1 80 true_host(v0,v1)\npath 10.0.0.2 443 mirror tcp_host\n",
                 lambda p: sorted(netsim.load_topology(p).paths)),
    "service table": ("80,tcp,Web\n8443,tcp,Vendor\n", ServiceTables._read),
    "scan records": (
        "0.000000,10.0.0.1,80,0,potential_capable,00000000000000aa\n"
        '{"address": "10.0.0.2", "classification": "no_response", "port": 443,'
        ' "timestamp": 1.0, "version": 1}\n',
        cli._read_records,
    ),
    "trace records": ("10.0.0.1,80,truly_capable,,aa00000000000001\n10.0.0.2,80,unreachable,,\n",
                      lambda p: _main_output(["report", "summary", "--in", str(p)], p)),
    "snapshot": ("10.0.0.1,potential_capable,00000000000000aa\n10.0.0.2,no_response,\n",
                 lambda p: SnapshotStore(p.parent)._read(p, SNAPSHOT).records),
    "report host rows": ("10.0.0.1\n10.0.0.2,443\n10.0.0.3,80,truly_capable,,\n",
                         lambda p: cli._read_hosts(str(p), None)),
}


def _main_output(argv, path):
    out = path.parent / f"{path.name}.out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_reader_ignores_comments_and_blank_lines(name, tmp_path):
    text, read = READERS[name]
    (tmp_path / "plain").mkdir()
    (tmp_path / "decorated").mkdir()
    plain = tmp_path / "plain" / "input.txt"
    decorated = tmp_path / "decorated" / "input.txt"
    (tmp_path / "plain" / "none.txt").write_text("")
    (tmp_path / "decorated" / "none.txt").write_text("")
    plain.write_text(text)
    decorated.write_text(_decorated(text))
    expected = read(plain)
    assert expected  # the plain input is not empty
    assert read(decorated) == expected


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
)

def _summary_exit_code(path):
    out = path.with_suffix(".out")
    assert cli.main(["report", "summary", "--in", str(path), "--out", str(out)]) in (0, 1)


# Each takes the path of a file holding the text and reads it the way the
# program does; any exception but ValueError fails the test.
TEXT_READERS = {
    "scan": cli._read_records,
    "trace": _summary_exit_code,
    "host rows": lambda p: cli._read_hosts(str(p), None),
    "labelled host rows": lambda p: cli._read_hosts(str(p), "truly_capable"),
    "targets": cli._read_targets,
    "keys": lambda p: keystats.read_keys(p.read_text().splitlines()),
    "blocklist": lambda p: Blocklist.load(p).matches("10.0.0.1"),
    "prefix table": lambda p: EnrichmentTable.load(p).lookup_asn("2001:db8::1"),
}


@given(st.lists(ROWS, max_size=4))
@settings(max_examples=300, deadline=None)
def test_readers_raise_only_value_error(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text("\n".join(rows), encoding="utf-8")
        for read in TEXT_READERS.values():
            try:
                read(path)
            except ValueError:
                pass


def test_load_targets_names_the_format():
    with pytest.raises(ValueError, match="expected address,port"):
        load_targets(["10.0.0.1"])


def test_prefix_table_file_needs_an_asn(tmp_path):
    prefixes = tmp_path / "prefixes.csv"
    prefixes.write_text("10.0.0.0/8\n")
    with pytest.raises(ValueError, match="expected prefix,asn"):
        EnrichmentTable.load(prefixes)
