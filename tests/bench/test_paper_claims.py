"""The paper's claims, as predicates over the committed figure facts.

``EXPERIMENTS.json`` (the ``figures`` ledger) holds every figure's
facts at its full shape and at its ``@fast`` shape, and ``repro ledger
figures`` re-derives them at zero tolerance.  These predicates run no
simulation: each reads one committed row, so every change is held to
the paper's claims, and a ``--regen`` that breaks one fails here.  A
full row carries the paper's quantitative claims (quoted where the
paper states them); an ``@fast`` row is too small to carry a claim and
gets shape checks instead.
"""

import copy
import os

import pytest

from repro.analysis import ledger
from repro.bench import ROWS
from repro.bench.segments import PAPER_VALUES

FACTS = ledger.read(os.path.join(os.path.dirname(__file__), os.pardir,
                                 os.pardir, "EXPERIMENTS.json"))
KB, MB = 1024, 1024 * 1024

#: (row, predicate) pairs; a predicate asserts its claim of a row's facts.
CLAIMS = []


def claim(*rows):
    """Register the decorated predicate for each of ``rows``."""
    def register(predicate):
        CLAIMS.extend((row, predicate) for row in rows)
        return predicate
    return register


def mean(values):
    values = list(values)
    return sum(values) / len(values)


# ---------------------------------------------------------------- Figure 1
def cell(facts, protocol, network):
    return facts["cells"]["%s/%s" % (protocol, network)]


@claim("transport")
def sftp_beats_tcp_off_the_modem(facts):
    """"In almost all cases, SFTP's performance exceeds that of TCP"
    (the modem is wire-limited for both); dramatically so on lossy
    WaveLan (paper: ~2x receive)."""
    for network in ("Ethernet", "WaveLan"):
        sftp, tcp = cell(facts, "SFTP", network), cell(facts, "TCP", network)
        assert sftp["send_kbps"] > tcp["send_kbps"], network
        assert sftp["receive_kbps"] > tcp["receive_kbps"], network
    assert cell(facts, "SFTP", "WaveLan")["receive_kbps"] \
        > 1.4 * cell(facts, "TCP", "WaveLan")["receive_kbps"]


@claim("transport")
def each_network_runs_at_its_own_rate(facts):
    """Ethernet is host-limited at megabit rates, sending beats
    receiving there, and the modem lands near 7 Kb/s (9.6 Kb/s less
    serial framing and headers) for both protocols both ways."""
    sftp = cell(facts, "SFTP", "Ethernet")
    assert sftp["send_kbps"] > 1_000 and sftp["send_kbps"] > \
        sftp["receive_kbps"]
    assert cell(facts, "TCP", "Ethernet")["send_kbps"] > 800
    for protocol in ("SFTP", "TCP"):
        row = cell(facts, protocol, "Modem")
        assert 5.5 < row["send_kbps"] < 8.5, protocol
        assert 5.5 < row["receive_kbps"] < 8.5, protocol


@claim("transport@fast")
def every_transport_cell_moved_data(facts):
    assert len(facts["cells"]) == 6
    for name, row in facts["cells"].items():
        assert row["send_kbps"] > 0 and row["receive_kbps"] > 0, name


# ---------------------------------------------------------------- Figure 4
def at(facts, window):
    return [trace["normalized"][str(window)] for trace in facts.values()]


@claim("aging")
def the_aging_window_thresholds(facts):
    """"Values of A below 300 seconds barely yield an effectiveness of
    30% on some traces, but ... nearly 80% on others"; "600 seconds
    yields nearly 50% effectiveness on all traces"; "for effectiveness
    above 80% on all traces, A must be nearly one hour"."""
    assert min(at(facts, 300)) < 0.45 and max(at(facts, 300)) > 0.70
    assert min(at(facts, 600)) >= 0.45 and min(at(facts, 600)) < 0.80
    assert min(at(facts, 3600)) >= 0.80


@claim("aging")
def savings_resemble_the_papers_denominators(facts):
    """Savings at A = 4 h within a factor of 1.5 of the paper's."""
    paper_mb = {"ives": 84, "concord": 817, "holst": 40, "messiaen": 152,
                "purcell": 44}
    for name, mb in paper_mb.items():
        assert mb / 1.5 < facts[name]["reference_bytes"] / 1e6 < mb * 1.5, \
            name


@claim("aging", "aging@fast")
def a_longer_window_never_hurts(facts):
    for name, trace in facts.items():
        values = [value for _w, value in sorted(
            (int(w), value) for w, value in trace["normalized"].items())]
        assert values == sorted(values) and trace["reference_bytes"] > 0, \
            name


@claim("aging@fast")
def two_traces(facts):
    assert set(facts) == {"holst", "purcell"}


# ---------------------------------------------------------------- Figure 7
def transparent(facts, priority, size):
    """The bandwidths (b/s) at which the file point is below tau."""
    return {int(bw) for bw, below in
            facts["points"]["%d/%d" % (priority, size)].items() if below}


@claim("patience", "patience@fast")
def the_captions_classification(facts):
    """"At 9.6 Kb/s, only the files at priority 900 and the 1KB file at
    priority 500 are below tau"; "at 64 Kb/s, the 1MB file at priority
    500 is also below"; "at 2Mb/s, all files except the 4MB and 8MB
    files at priority 100 are below"."""
    assert transparent(facts, 900, 1 * MB) == {9_600, 64_000, 2_000_000}
    assert transparent(facts, 900, 8 * MB) == {9_600, 64_000, 2_000_000}
    assert transparent(facts, 500, 1 * KB) == {9_600, 64_000, 2_000_000}
    assert transparent(facts, 500, 1 * MB) == {64_000, 2_000_000}
    assert transparent(facts, 100, 1 * MB) == {2_000_000}
    assert transparent(facts, 100, 4 * MB) == set()
    assert transparent(facts, 100, 8 * MB) == set()


@claim("patience", "patience@fast")
def a_threshold_is_a_file_size_at_each_bandwidth(facts):
    """"60 seconds at a bandwidth of 64 Kb/s yields a maximum file size
    of 480KB": each curve point is tau times the bandwidth."""
    assert 60.0 * 64_000 / 8.0 == 480_000
    for priority, row in facts["curve"].items():
        for bandwidth, size in row["max_bytes"].items():
            assert size == pytest.approx(
                row["tau_seconds"] * int(bandwidth) / 8, rel=1e-6), priority


@claim("patience", "patience@fast")
def a_megabyte_miss_takes_seconds_or_a_quarter_hour(facts):
    """Section 4.4: a few seconds at 10 Mb/s, nearly 20 min at 9.6 Kb/s."""
    assert facts["miss_seconds"]["10 Mb/s"] < 5.0
    assert 12 * 60 < facts["miss_seconds"]["9.6 Kb/s"] < 20 * 60


# ---------------------------------------------------------------- Figure 8
@claim("validation", "validation@fast")
def volume_callbacks_always_win(facts):
    """"For all users, and at all bandwidths, volume callbacks reduce
    cache validation time"."""
    for name, row in facts.items():
        assert row["volume_seconds"] < row["object_seconds"], name


@claim("validation")
def the_win_grows_as_bandwidth_falls(facts):
    """"The reduction is modest at high bandwidths, but becomes
    substantial as bandwidth decreases"; volume validation at 9.6 Kb/s
    takes "only about 25% longer than at 10 Mb/s" (60% allowed)."""
    users = {name.split("/")[0] for name in facts}
    assert len(users) == 5
    for user in users:
        ether, modem = facts[user + "/Ethernet"], facts[user + "/Modem"]
        assert modem["speedup"] > 2.0 * ether["speedup"], user
        assert modem["volume_seconds"] < 1.6 * ether["volume_seconds"], user
        assert modem["object_seconds"] > 2.0 * ether["object_seconds"], user


@claim("validation@fast")
def one_user_on_two_networks(facts):
    assert sorted(facts) == ["user1/Ethernet", "user1/Modem"]


# ---------------------------------------------------------------- Figure 9
def everyone(facts):
    return [client for group in ("desktops", "laptops")
            for client in facts[group]["clients"].values()]


@claim("fleet")
def stamps_survive_and_validations_succeed(facts):
    """"On average, clients found themselves without a volume stamp only
    in 3% of the cases" (we land in the low single digits); "most
    success rates were over 97%"."""
    clients = everyone(facts)
    assert mean(c["missing_pct"] for c in clients) < 8.0
    assert mean(c["success_pct"] for c in clients) > 94.0
    assert sum(c["success_pct"] > 95.0 for c in clients) \
        >= 0.7 * len(clients)


@claim("fleet")
def a_success_saves_tens_of_validations(facts):
    """"Each successful validation saved roughly 53 individual
    validations", at a realistic rate (paper: ~1310-1400 attempts per
    client over four weeks)."""
    clients = everyone(facts)
    assert 20 < mean(c["objs_per_success"] for c in clients) < 120
    assert mean(c["attempts"] for c in clients) > 100


@claim("fleet", "fleet@fast")
def every_client_validated(facts):
    for client in everyone(facts):
        assert client["attempts"] > 0
        assert 0.0 <= client["success_pct"] <= 100.0


@claim("fleet")
def sixteen_desktops_and_ten_laptops(facts):
    assert [len(facts[g]["clients"]) for g in ("desktops", "laptops")] \
        == [16, 10]


@claim("fleet@fast")
def four_desktops_and_two_laptops(facts):
    assert [len(facts[g]["clients"]) for g in ("desktops", "laptops")] \
        == [4, 2]


# --------------------------------------------------------------- Figure 10
def bins(facts):
    return [facts["bins"][key]
            for key in ("0-20", "20-40", "40-60", "60-80", "80-100")]


@claim("compressibility")
def a_third_below_twenty_the_rest_above_forty(facts):
    """"The compressibilities of roughly a third of the segments are
    below 20% (a quarter to a half accepted), while those of the
    remaining two-thirds range from 40% to 100%"; the 20-40% bin is the
    sparse middle, and enough segments reach 1 MB for a histogram."""
    counts = bins(facts)
    assert facts["kept"] >= 25
    assert 0.2 <= counts[0] / facts["kept"] <= 0.5
    assert sum(counts[2:]) >= 0.4 * facts["kept"]
    assert counts[1] <= counts[0] and counts[1] <= sum(counts[2:])


@claim("compressibility", "compressibility@fast")
def every_kept_segment_is_binned(facts):
    """Every compressibility lies in [0, 1]: the bins hold them all."""
    assert sum(bins(facts)) == facts["kept"] >= 5


# --------------------------------------------------------------- Figure 11
@claim("segments")
def segments_match_the_published_statistics(facts):
    """References and updates within 10% of the paper's, CML volumes
    within 20%, compressibility within 8 points, in quartile order."""
    assert sorted(facts) == sorted(PAPER_VALUES)
    for name, paper in PAPER_VALUES.items():
        row = facts[name]
        for key, value, slack in zip(
                ("references", "updates", "unopt_kb", "opt_kb"), paper,
                (0.10, 0.10, 0.20, 0.20)):
            assert abs(row[key] - value) / value < slack, (name, key)
        assert abs(row["compressibility"] - paper[4]) < 0.08, name
    order = [facts[name]["compressibility"]
             for name in ("purcell", "holst", "messiaen", "concord")]
    assert order == sorted(order)


@claim("segments", "segments@fast")
def optimization_never_grows_a_log(facts):
    for name, row in facts.items():
        assert row["references"] > 0 and row["updates"] > 0, name
        assert row["opt_kb"] <= row["unopt_kb"], name
        assert 0.0 <= row["compressibility"] <= 1.0, name


# ----------------------------------------------------------- Figures 12-14
@claim("replay")
def elapsed_time_is_insulated_from_bandwidth(facts):
    """"On average, performance is only about 2% slower at 9.6 Kb/s
    than at 10 Mb/s" (under 5% required); "even the worst case ... is
    only 11% slower"."""
    assert -0.05 < facts["slowdown"]["mean"] < 0.05
    assert facts["slowdown"]["worst"] < 0.12


@claim("replay")
def elapsed_times_in_the_papers_regime(facts):
    """Roughly 900-2200 s, and lambda = 10 s (less think time kept)
    always faster than lambda = 1 s, over all 64 cells."""
    cells = facts["cells"]
    assert len(cells) == 64
    for key, row in cells.items():
        assert 700 < row["elapsed"] < 2400, key
        if key.startswith("10/"):
            assert row["elapsed"] < cells["1/" + key[3:]]["elapsed"], key


@claim("replay", "replay@fast")
def lower_bandwidth_ships_less_and_optimizes_more(facts):
    """Figure 14 at lambda = 1 s, A = 600 s: "as bandwidth decreases,
    so does the amount of data shipped", "more data remains in the
    CML", and "there is greater opportunity for optimization" (1 KB of
    slack)."""
    cells, segments = facts["cells"], set()
    for key, modem in cells.items():
        if key.startswith("1/600/") and key.endswith("/Modem"):
            ether = cells[key[:-len("Modem")] + "Ethernet"]
            assert modem["shipped_bytes"] <= ether["shipped_bytes"] + KB, key
            assert modem["end_cml_bytes"] >= ether["end_cml_bytes"] - KB, key
            assert modem["optimized_bytes"] \
                >= ether["optimized_bytes"] - KB, key
            segments.add(key.split("/")[2])
    assert segments


@claim("replay@fast")
def one_segment_on_two_networks(facts):
    assert sorted(facts["cells"]) == ["1/600/purcell/Ethernet",
                                      "1/600/purcell/Modem"]
    assert all(row["elapsed"] > 0 for row in facts["cells"].values())


# --------------------------------------------------------------- Ablations
@claim("ablations")
def bigger_chunks_delay_foreground_misses(facts):
    """Section 4.3.5: a bigger chunk monopolizes the modem longer; at
    the 30 s budget a miss waits about one chunk plus its own transfer
    (~40 KB at 9.6 Kb/s is ~45 s)."""
    by = facts["chunk"]
    assert by["5s"]["miss_latency"] <= by["300s"]["miss_latency"]
    assert by["30s"]["miss_latency"] < 130.0


@claim("ablations", "ablations@fast")
def whole_log_chunks_delay_a_miss_most(facts):
    by = facts["chunk"]
    assert by["30s"]["miss_latency"] < by["whole log"]["miss_latency"]


@claim("ablations")
def the_aging_window_trades_traffic_for_backlog(facts):
    """Section 4.3.4: A = 0 ships the most, a long A leaves the biggest
    backlog, and the savings grow with the window."""
    by = facts["aging"]
    assert by["0"]["shipped_kb"] > by["600"]["shipped_kb"]
    assert by["1800"]["end_cml_kb"] > by["0"]["end_cml_kb"]
    savings = [by[label]["optimized_kb"]
               for label in ("0", "60", "300", "600", "1800")]
    assert savings == sorted(savings)


@claim("ablations@fast")
def aging_ships_less_and_saves_more(facts):
    by = facts["aging"]
    assert by["0"]["shipped_kb"] >= by["600"]["shipped_kb"]
    assert by["600"]["optimized_kb"] >= by["0"]["optimized_kb"]


def on_off(facts):
    return (facts["log-optimizations"][label] for label in ("on", "off"))


@claim("ablations")
def log_optimizations_cut_the_traffic(facts):
    """Section 4.3.3: on concord, without the optimizer over three
    times the data is shipped or left queued, and >10 MB is saved."""
    on, off = on_off(facts)
    assert off["shipped_kb"] + off["end_cml_kb"] \
        > 3.0 * (on["shipped_kb"] + on["end_cml_kb"])
    assert on["optimized_kb"] > 10 * 1024


@claim("ablations", "ablations@fast")
def only_the_optimizer_optimizes(facts):
    on, off = on_off(facts)
    assert off["optimized_kb"] == 0 and on["optimized_kb"] > 0


@claim("ablations")
def coarse_volumes_share_falsely(facts):
    """Section 4.2.2: the same update load over more volumes
    invalidates fewer stamps."""
    one, sixteen = (facts["false-sharing"][label] for label in ("1", "16"))
    assert sixteen["success_pct"] - one["success_pct"] > 30
    assert sixteen["objects_saved"] > one["objects_saved"]


@claim("ablations@fast")
def more_volumes_validate_no_worse(facts):
    by = facts["false-sharing"]
    assert by["1"]["success_pct"] <= by["8"]["success_pct"]


def goodputs(facts):
    return [facts["header-compression"][label]["goodput_kbps"]
            for label in ("0", "23")]


@claim("ablations")
def header_compression_helps_only_a_little(facts):
    """Section 4.1: the paper "deliberately tried to minimize efforts
    at the transport level"; compression buys a few percent."""
    plain, compressed = goodputs(facts)
    assert plain < compressed < 1.15 * plain


@claim("ablations@fast")
def header_compression_never_hurts(facts):
    plain, compressed = goodputs(facts)
    assert 0 < plain <= compressed


@claim("ablations", "ablations@fast")
def each_tariff_adapts(facts):
    """Section 8: a per-MB tariff ships no more than a free network
    (stretched aging cancels more), a per-minute one drains promptly,
    and the ledgers price each run."""
    free, cellular, phone = (facts["cost"][name] for name in (
        "free", "cellular-data", "long-distance-phone"))
    assert cellular["shipped_kb"] <= free["shipped_kb"]
    assert phone["shipped_kb"] > free["shipped_kb"]
    assert phone["cml_left_kb"] == 0
    assert free["money_spent"] == 0
    assert cellular["money_spent"] < 1.0 and phone["money_spent"] > 0.5


def keepalives(facts):
    return (facts["keepalive"][label] for label in ("shared", "duplicated"))


@claim("ablations")
def shared_keepalives_halve_idle_bytes(facts):
    """Section 4.1's fix: shared liveness sends under half the idle
    bytes of the per-layer streams and still monitors the link."""
    shared, duplicated = keepalives(facts)
    assert shared["bytes_per_hour"] < 0.5 * duplicated["bytes_per_hour"]
    assert shared["packets_per_hour"] > 10


@claim("ablations@fast")
def shared_keepalives_send_less(facts):
    shared, duplicated = keepalives(facts)
    assert shared["bytes_per_hour"] < duplicated["bytes_per_hour"]


# -------------------------------------------------------------------------
@pytest.mark.parametrize(
    "row, predicate", CLAIMS,
    ids=["%s-%s" % (row, predicate.__name__) for row, predicate in CLAIMS])
def test_the_committed_facts_hold_the_claim(row, predicate):
    predicate(FACTS[row])


def test_every_figure_row_is_committed_and_claimed():
    assert sorted(FACTS) == sorted(ROWS)
    assert {row for row, _predicate in CLAIMS} == set(ROWS)


#: One wrong fact each, and the predicate that must catch it.
PLANTS = {
    "sftp-wavelan-receive-below-tcp": (
        "transport", sftp_beats_tcp_off_the_modem,
        lambda f: cell(f, "SFTP", "WaveLan").update(
            receive_kbps=cell(f, "TCP", "WaveLan")["receive_kbps"] - 1)),
    "concord-at-600s-below-half": (
        "aging", the_aging_window_thresholds,
        lambda f: f["concord"]["normalized"].update({"600": 0.40})),
    "modem-twenty-percent-slower": (
        "replay", elapsed_time_is_insulated_from_bandwidth,
        lambda f: f["slowdown"].update(worst=0.2)),
    "a-fleet-of-failures": (
        "fleet", stamps_survive_and_validations_succeed,
        lambda f: [c.update(success_pct=90.0) for c in everyone(f)]),
}


@pytest.mark.parametrize("plant", PLANTS)
def test_a_planted_wrong_fact_breaks_its_claim(plant):
    row, predicate, edit = PLANTS[plant]
    facts = copy.deepcopy(FACTS[row])
    predicate(facts)
    edit(facts)
    with pytest.raises(AssertionError):
        predicate(facts)
