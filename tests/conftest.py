"""Shared test fixtures: simulators, testbeds, convenience runners."""

import pytest

from hypothesis import HealthCheck, settings as hypothesis_settings

from repro.net import ETHERNET, MODEM
from repro.sim import Simulator
from repro.sim.resources import Store
from repro.spec.testbed import make_testbed, populate_volume, warm_cache

# Deadline-safe defaults for every property suite.  Simulated time is
# free but host time is not: a pinned worst-case example (say, a
# quarter-megabyte SFTP store over a lossy 9.6 Kb/s link) can take
# hundreds of wall milliseconds on a loaded CI box, which flakes
# Hypothesis's per-example deadline and its too_slow health check even
# though the test is fully deterministic.  Individual tests still set
# max_examples; they inherit these safety rails from the profile.
hypothesis_settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
hypothesis_settings.load_profile("repro")


@pytest.fixture
def sim():
    return Simulator()


def has_callback(registry, client, key):
    """Does ``client`` hold a callback promise on ``key``, a ``Fid`` or
    a volume id?"""
    holders = registry._volume_holders if isinstance(key, int) \
        else registry._object_holders
    return client in holders.get(key, ())


def queued_socket(net, node, port):
    """``(socket, store)``: a socket at ``(node, port)`` whose arrivals
    queue in ``store``, so ``store.get()`` waits for the next one."""
    store = Store(net.sim)
    return net.socket(node, port, store.put), store


def build_testbed(profile=ETHERNET, tree=None, mount="/coda/usr/u",
                  venus_config=None, warm=True, user=None, seed=0):
    """A one-client testbed with an optional populated, warmed volume."""
    testbed = make_testbed(profile, venus_config=venus_config, user=user,
                           seed=seed)
    if tree is None:
        tree = {
            mount + "/dir": ("dir", 0),
            mount + "/dir/a.txt": ("file", 4_000),
            mount + "/dir/b.txt": ("file", 12_000),
            mount + "/dir/big.bin": ("file", 400_000),
        }
    volume = populate_volume(testbed.server, mount, tree)
    if warm:
        warm_cache(testbed.venus, testbed.server, volume)
    else:
        testbed.venus.learn_mounts(testbed.server.registry)
    testbed.volume = volume
    testbed.mount = mount
    return testbed


@pytest.fixture
def testbed():
    return build_testbed()


@pytest.fixture
def modem_testbed():
    return build_testbed(profile=MODEM)


def run_op(testbed, generator):
    """Run one Venus operation generator to completion."""
    return testbed.run(generator)


def connected(testbed):
    """Connect the testbed's client; returns the resulting state."""
    def go():
        ok = yield from testbed.venus.connect()
        assert ok
        return testbed.venus.state.state
    return testbed.run(go())


def exits_2(argv, capsys):
    """stderr of a ``repro`` invocation that must exit 2 (usage error)."""
    from repro.cli import main
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err
