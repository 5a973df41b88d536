"""Hoard walks and user-assisted miss handling (sections 4.4.2-4.4.3)."""

import pytest

from repro.net import MODEM
from repro.venus import (
    CacheMissError,
    ScriptedUser,
    NeverApprove,
    VenusConfig,
    VenusState,
)

from tests.conftest import build_testbed, connected

M = "/coda/usr/u"


def cold_tree():
    return {
        M + "/papers": ("dir", 0),
        M + "/papers/s15.bib": ("file", 3_000),
        M + "/papers/s15.tex": ("file", 20_000),
        M + "/bin": ("dir", 0),
        M + "/bin/emacs": ("file", 600_000),
    }


def test_walk_fetches_hoarded_objects_when_strong():
    testbed = build_testbed(tree=cold_tree(), warm=False)
    connected(testbed)
    venus = testbed.venus
    venus.hoard(M + "/papers", 600, children=True)
    report = testbed.run(venus.hoard_walk())
    assert report.fetched == 2
    assert report.stamps_acquired == 1
    # Both files now readable from cache even if we disconnect.
    testbed.link.set_up(False)
    venus.handle_disconnection()
    content = testbed.run(venus.read_file(M + "/papers/s15.tex"))
    assert content.size == 20_000


def test_walk_preapproves_cheap_fetches_when_weak():
    config = VenusConfig(start_daemons=False)
    testbed = build_testbed(profile=MODEM, tree=cold_tree(), warm=False,
                            venus_config=config, user=NeverApprove())
    connected(testbed)
    venus = testbed.venus
    assert venus.state.state is VenusState.WRITE_DISCONNECTED
    venus.hoard(M + "/papers/s15.bib", 600)   # 3 KB: within patience
    venus.hoard(M + "/bin/emacs", 100)        # 600 KB: way beyond
    report = testbed.run(venus.hoard_walk())
    assert report.preapproved == 1
    assert report.fetched == 1
    assert report.skipped == 1
    assert venus.cache.get(
        testbed.run(venus.stat(M + "/papers/s15.bib")).fid).content


def test_walk_user_can_approve_expensive_fetch():
    user = ScriptedUser(approvals={M + "/bin/emacs": True},
                        delay_seconds=5.0)
    config = VenusConfig(start_daemons=False)
    testbed = build_testbed(profile=MODEM, tree=cold_tree(), warm=False,
                            venus_config=config, user=user)
    connected(testbed)
    venus = testbed.venus
    venus.hoard(M + "/bin/emacs", 100)
    report = testbed.run(venus.hoard_walk())
    assert user.asked == [M + "/bin/emacs"]
    assert report.user_approved == 1
    assert report.fetched == 1


def test_stop_asking_suppresses_until_strong():
    user = ScriptedUser(approvals={M + "/bin/emacs": "stop"})
    config = VenusConfig(start_daemons=False)
    testbed = build_testbed(profile=MODEM, tree=cold_tree(), warm=False,
                            venus_config=config, user=user)
    connected(testbed)
    venus = testbed.venus
    venus.hoard(M + "/bin/emacs", 100)
    report = testbed.run(venus.hoard_walk())
    assert report.suppressed == 1
    # A second walk does not ask again.
    report2 = testbed.run(venus.hoard_walk())
    assert user.asked == [M + "/bin/emacs"]
    assert report2.candidates == 0


def test_miss_review_feeds_hoard_database():
    """The Figure 5 loop: miss -> review -> hoard -> next walk fetches."""
    user = ScriptedUser(
        hoard_additions=[(M + "/bin/emacs", 900, False)],
        approvals={})
    config = VenusConfig(start_daemons=False)
    testbed = build_testbed(profile=MODEM, tree=cold_tree(), warm=False,
                            venus_config=config, user=user)
    connected(testbed)
    venus = testbed.venus
    with pytest.raises(CacheMissError):
        testbed.run(venus.read_file(M + "/bin/emacs", program="csh"))
    assert len(venus.misses) == 1
    additions = testbed.run(venus.review_misses())
    assert additions == [(M + "/bin/emacs", 900, False)]
    assert venus.hdb.priority_for(M + "/bin/emacs") == 900
    # At priority 900 the patience threshold is enormous: the next
    # walk pre-approves the fetch.
    report = testbed.run(venus.hoard_walk())
    assert report.preapproved == 1
    assert report.fetched == 1
    content = testbed.run(venus.read_file(M + "/bin/emacs"))
    assert content.size == 600_000


def test_unattended_client_times_out_to_fetch_all():
    """Figure 6: no input -> the screen disappears, everything fetches."""
    config = VenusConfig(start_daemons=False, advice_timeout=60.0)
    testbed = build_testbed(profile=MODEM, tree=cold_tree(), warm=False,
                            venus_config=config)   # default TimeoutUser
    connected(testbed)
    venus = testbed.venus
    venus.hoard(M + "/bin/emacs", 100)
    start = testbed.sim.now
    report = testbed.run(venus.hoard_walk())
    assert report.fetched == 1
    assert testbed.sim.now - start >= 60.0     # waited out the screen


def test_periodic_walk_daemon_runs():
    config = VenusConfig(hoard_walk_interval=600.0)
    testbed = build_testbed(tree=cold_tree(), warm=False,
                            venus_config=config)
    connected(testbed)
    venus = testbed.venus
    venus.hoard(M + "/papers", 500, children=True)
    testbed.sim.run(until=testbed.sim.now + 700.0)
    assert venus.stats.hoard_walks >= 1
    entry = venus.cache.get(
        testbed.run(venus.stat(M + "/papers/s15.bib")).fid)
    assert entry.content is not None
