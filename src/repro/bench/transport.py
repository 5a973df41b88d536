"""Figure 1: SFTP vs TCP throughput over three networks.

The paper times "the disk-to-disk transfer of a 1MB file between a
DECpc 425SL laptop client and a DEC 5000/200 server on an isolated
network", five trials each, over Ethernet (10 Mb/s), WaveLan (2 Mb/s)
and a 9.6 Kb/s modem (its table sits beside ours in EXPERIMENTS.md).
SFTP transfers run as Fetch (receive) and Store (send) RPCs through
the full RPC2/SFTP stack; TCP runs the simplified Reno sender.
WaveLan is wireless and lossy — that loss is what collapses TCP's
window while SFTP's selective retransmission shrugs it off.
"""

import statistics

from repro.bench.results import Table
from repro.net import ETHERNET, MODEM, WAVELAN, Network
from repro.net.host import LAPTOP_1995, SERVER_1995
from repro.rpc2 import Rpc2Endpoint, tcp_transfer
from repro.sim import RandomStreams, Simulator

TRANSFER_BYTES = 1_000_000
TRIALS = 5

#: Loss rates used for the transport experiment; WaveLan radios of the
#: era dropped a percent or two of packets even in good conditions.
LOSS = {"Ethernet": 0.0, "WaveLan": 0.025, "Modem": 0.002}

PROTOCOLS = ("TCP", "SFTP")
NETWORKS = (ETHERNET, WAVELAN, MODEM)


def _sftp_trial(profile, loss, direction, seed, nbytes=TRANSFER_BYTES,
                header_savings=0):
    """SFTP goodput in b/s of one ``nbytes`` Fetch ("receive") or Store
    ("send"); ``header_savings`` bytes come off every packet's header
    (the header-compression ablation)."""
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(seed).stream("net"))
    net.add_link("laptop", "server", profile=profile, loss_rate=loss,
                 header_savings=header_savings)
    client = Rpc2Endpoint(sim, net, "laptop", 2432, LAPTOP_1995,
                          default_bps=profile.bandwidth_bps)
    server = Rpc2Endpoint(sim, net, "server", 2432, SERVER_1995,
                          default_bps=profile.bandwidth_bps)
    server.register("Fetch", lambda ctx, args: (None, args["n"]))
    server.register("Store", lambda ctx, args: {"got": ctx.received_bytes})
    conn = client.connect("server")

    def transfer():
        start = sim.now
        if direction == "receive":
            yield conn.call("Fetch", {"n": nbytes})
        else:
            yield conn.call("Store", {}, send_size=nbytes)
        return sim.now - start

    elapsed = sim.run(sim.process(transfer()))
    return nbytes * 8.0 / elapsed


def _tcp_trial(profile, loss, direction, seed):
    sim = Simulator()
    net = Network(sim, rng=RandomStreams(seed).stream("net"))
    net.add_link("laptop", "server", profile=profile, loss_rate=loss)
    if direction == "send":
        process = tcp_transfer(sim, net, "laptop", "server",
                               TRANSFER_BYTES, LAPTOP_1995, SERVER_1995)
    else:
        process = tcp_transfer(sim, net, "server", "laptop",
                               TRANSFER_BYTES, SERVER_1995, LAPTOP_1995)
    elapsed = sim.run(process)
    return TRANSFER_BYTES * 8.0 / elapsed


def run_transport_comparison(trials=TRIALS):
    """Run the Figure 1 grid: ``{"PROTOCOL/Network": cell}``, each cell
    the mean and population sd, in Kb/s, of ``trials`` seeded transfers
    each way."""
    cells = {}
    for protocol, trial in zip(PROTOCOLS, (_tcp_trial, _sftp_trial)):
        for profile in NETWORKS:
            cell = cells["%s/%s" % (protocol, profile.name)] = {}
            for direction in ("receive", "send"):
                speeds = [trial(profile, LOSS[profile.name], direction, seed)
                          for seed in range(trials)]
                cell[direction + "_kbps"] = statistics.mean(speeds) / 1000
                cell[direction + "_sd"] = statistics.pstdev(speeds) / 1000
    return cells


def facts(fast):
    """Five trials a cell (one ``@fast``)."""
    trials = 1 if fast else TRIALS
    return {"trials": trials, "cells": run_transport_comparison(trials)}


def tables(facts):
    table = Table(
        "Figure 1: Transport Protocol Performance "
        "(1 MB transfer, mean of %d trials, Kb/s)" % facts["trials"],
        ["Protocol", "Network", "Receive (Kb/s)", "Send (Kb/s)"])
    for protocol in PROTOCOLS:
        for profile in NETWORKS:
            cell = facts["cells"]["%s/%s" % (protocol, profile.name)]
            table.add(protocol, profile.name, *(
                "%.1f (%.2f)" % (cell[way + "_kbps"], cell[way + "_sd"])
                for way in ("receive", "send")))
    return [table]
