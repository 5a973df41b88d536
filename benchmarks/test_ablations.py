"""Ablations of the paper's design choices (beyond its own tables)."""

from repro.bench import ablations


def run(once, ablation, values=None, **knobs):
    """Sweep ``ablation`` once under the timer, print its table, and
    return its rows keyed by label."""
    rows = once(lambda: ablations.sweep(ablation, values, **knobs))
    ablations.render(ablation, rows).show()
    return {row["label"]: row for row in rows}


def test_ablation_chunk_budget(once, fast):
    if fast:
        by = run(once, ablations.CHUNK,
                 (("30s", 30.0), ("whole log", None)), backlog_files=3)
        assert by["30s"]["miss_latency"] < by["whole log"]["miss_latency"]
        return
    by = run(once, ablations.CHUNK)

    # Bigger chunks monopolize the modem longer: foreground miss
    # latency grows with the chunk budget, and whole-log chunks are
    # the worst case the 30-second budget exists to avoid.
    assert by["5s"]["miss_latency"] <= by["300s"]["miss_latency"]
    assert by["30s"]["miss_latency"] < by["whole log"]["miss_latency"]
    # With the default 30 s budget, the miss waits at most roughly one
    # chunk time plus its own transfer (~40 KB at 9.6 Kb/s is ~45 s).
    assert by["30s"]["miss_latency"] < 130.0


def test_ablation_aging_replay(once, fast):
    if fast:
        by = run(once, ablations.AGING, (("0", 0.0), ("600", 600.0)))
        assert by["0"]["shipped_kb"] >= by["600"]["shipped_kb"]
        assert by["600"]["optimized_kb"] >= by["0"]["optimized_kb"]
        return
    by = run(once, ablations.AGING)

    # A = 0 ships the most data (no time for optimizations to cancel);
    # large A ships the least but leaves the biggest backlog.
    assert by["0"]["shipped_kb"] > by["600"]["shipped_kb"]
    assert by["1800"]["end_cml_kb"] > by["0"]["end_cml_kb"]
    # Optimization savings grow monotonically with the window.
    savings = [by[label]["optimized_kb"]
               for label, _window in ablations.AGING.values]
    assert savings == sorted(savings)


def test_ablation_log_optimizations(once, fast):
    if fast:
        by = run(once, ablations.LOGOPT, segment="purcell")
        on, off = by["on"], by["off"]
        assert off["optimized_bytes"] == 0
        assert on["optimized_bytes"] > 0
        return
    by = run(once, ablations.LOGOPT)
    on, off = by["on"], by["off"]

    # On the highly-compressible concord segment the optimizer
    # eliminates most of the would-be traffic: without it, far more
    # data is shipped and/or left queued.
    pending_on = on["shipped_bytes"] + on["end_cml_bytes"]
    pending_off = off["shipped_bytes"] + off["end_cml_bytes"]
    assert pending_off > 3.0 * pending_on
    assert off["optimized_bytes"] == 0
    assert on["optimized_bytes"] > 10 * 1024 * 1024


def test_ablation_false_sharing(once, fast):
    if fast:
        by = run(once, ablations.FALSE_SHARING, (("1", 1), ("8", 8)),
                 total_files=48)
        assert by["1"]["success_fraction"] <= by["8"]["success_fraction"]
        return
    by = run(once, ablations.FALSE_SHARING)
    rows = [by[label] for label, _volumes in ablations.FALSE_SHARING.values]

    # The same update load spread over more volumes invalidates fewer
    # stamps: success rises monotonically (modulo ties) and the single
    # giant volume is clearly the worst.
    fractions = [row["success_fraction"] for row in rows]
    assert fractions[0] <= fractions[-1]
    assert fractions[-1] - fractions[0] > 0.3
    saved = [row["objects_saved"] for row in rows]
    assert saved[-1] > saved[0]


def test_ablation_header_compression(once, fast):
    if fast:
        by = run(once, ablations.COMPRESSION, transfer_bytes=50_000)
        plain, compressed = by["0"], by["23"]
        assert plain["goodput_kbps"] > 0
        assert compressed["goodput_kbps"] >= plain["goodput_kbps"]
        return
    by = run(once, ablations.COMPRESSION)
    plain, compressed = by["0"], by["23"]
    # Compression helps a little on a modem — and only a little, which
    # is why the paper "deliberately tried to minimize efforts at the
    # transport level".
    assert compressed["goodput_kbps"] > plain["goodput_kbps"]
    assert compressed["goodput_kbps"] < 1.15 * plain["goodput_kbps"]


def test_extension_cost_aware_adaptation(once):
    by = run(once, ablations.COST)
    free = by["free"]
    cellular = by["cellular-data"]
    phone = by["long-distance-phone"]
    # Per-MB tariffs ship no more than the free network (stretched
    # aging holds data back for more cancellation).
    assert cellular["shipped_kb"] <= free["shipped_kb"]
    # Per-minute tariffs drain promptly (no optimization time at all).
    assert phone["shipped_kb"] > free["shipped_kb"]
    assert phone["cml_left_kb"] == 0
    # And the ledgers reflect the tariffs.
    assert free["money_spent"] == 0
    assert cellular["money_spent"] < 1.0
    assert phone["money_spent"] > 0.5


def test_ablation_shared_keepalives(once, fast):
    if fast:
        by = run(once, ablations.KEEPALIVE, idle_hours=0.25)
        assert by["shared"]["bytes_per_hour"] < \
            by["duplicated"]["bytes_per_hour"]
        return
    by = run(once, ablations.KEEPALIVE)
    # Sharing liveness across layers cuts idle traffic by at least half
    # — the duplicated streams each ping on their own schedule.
    assert by["shared"]["bytes_per_hour"] < 0.5 * \
        by["duplicated"]["bytes_per_hour"]
    # And the shared scheme still keeps the connection monitored.
    assert by["shared"]["packets_per_hour"] > 10
