"""The simulated disk (repro.sim.disk): what a crash keeps."""

import pytest

from repro.p2p.network import SimNetwork
from repro.sim.disk import SimDisk


@pytest.fixture
def disk():
    return SimDisk()


def test_an_appended_tail_is_lost_by_a_crash(disk):
    disk.append("P1/wal-000001.seg", b"header\n")
    disk.sync("P1/wal-000001.seg")
    disk.append("P1/wal-000001.seg", b"frame\n")
    assert disk.read("P1/wal-000001.seg") == b"header\nframe\n"
    disk.crash("P1")
    assert disk.read("P1/wal-000001.seg") == b"header\n"


def test_a_synced_append_survives_a_crash(disk):
    disk.append("P1/wal-000001.seg", b"header\n")
    disk.append("P1/wal-000001.seg", b"frame\n")
    disk.sync("P1/wal-000001.seg")
    disk.crash("P1")
    assert disk.read("P1/wal-000001.seg") == b"header\nframe\n"


def test_a_publish_survives_a_crash_whole(disk):
    disk.append("P1/ckpt-000001.ckpt", b"stale tail")
    disk.publish("P1/ckpt-000001.ckpt", b"checkpoint\n")
    disk.crash("P1")
    assert disk.read("P1/ckpt-000001.ckpt") == b"checkpoint\n"


def test_a_crash_leaves_other_directories_alone(disk):
    for directory in ("P1", "P10"):
        disk.append(f"{directory}/wal-000001.seg", b"unsynced")
    disk.crash("P1")
    assert disk.read("P1/wal-000001.seg") == b""
    assert disk.read("P10/wal-000001.seg") == b"unsynced"


def test_a_tear_halves_a_file(disk):
    disk.publish("P1/ckpt-000002.ckpt", b"0123456789")
    disk.tear("P1/ckpt-000002.ckpt")
    assert disk.read("P1/ckpt-000002.ckpt") == b"01234"
    disk.crash("P1")
    assert disk.read("P1/ckpt-000002.ckpt") == b"01234"


def test_names_lists_one_directory_sorted(disk):
    for path in ("P1/b", "P1/a", "P10/c", "P1/sub/d"):
        disk.publish(path, b"")
    assert disk.names("P1") == ["a", "b"]
    disk.unlink("P1/a")
    assert disk.names("P1") == ["b"]


def test_every_network_has_its_own_disk():
    assert SimNetwork().disk is not SimNetwork().disk
