"""Torn tail vs interior corruption in the master journal.

A write-ahead record that never fully landed describes an effect that
never happened, so a *tail* bad frame legally ends the log.  A bad frame
with intact frames *behind* it is interior corruption: the later
records' effects did happen, and silently replaying only the prefix
would resurrect consumed history.  Strict scans (master recovery) must
therefore stop on the first and raise on the second — both corruption
windows (CRC damage, unpicklable payload) in both positions.
"""

import os
import pickle
import struct
import zlib

import pytest

from repro.dist.journal import (
    MANIFEST_FILE,
    MasterJournal,
    WAL_FILE,
    pack_frame,
    read_records,
)
from repro.errors import JournalCorrupt


def write_frames(path, records):
    with open(path, "wb") as fobj:
        for record in records:
            fobj.write(pack_frame(record))


def corrupt_payload_byte(path, frame_index, records):
    """Flip one payload byte of frame ``frame_index`` (CRC now mismatches)."""
    offset = sum(len(pack_frame(r)) for r in records[:frame_index])
    with open(path, "r+b") as fobj:
        fobj.seek(offset + 8)  # past length(4) + crc32(4)
        byte = fobj.read(1)
        fobj.seek(offset + 8)
        fobj.write(bytes([byte[0] ^ 0xFF]))


def crc_valid_garbage_frame():
    """A frame whose CRC checks out but whose payload is not a pickle."""
    payload = b"definitely not a pickle stream"
    header = struct.pack(">II", len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
    return header + payload


RECORDS = [("spawn", 0), ("assign", "a", 1), ("done", "a"), ("epochs", {0: 1})]


class TestTornTail:
    """Every tail-damage shape ends the log quietly, strict or not."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("cut", [1, 5, 9])
    def test_truncated_final_frame(self, tmp_path, strict, cut):
        # Cutting 1 byte tears the payload, 5 the payload boundary, 9
        # reaches into the header — short payload and short header.
        path = str(tmp_path / "wal.bin")
        write_frames(path, RECORDS)
        size = os.path.getsize(path)
        with open(path, "r+b") as fobj:
            fobj.truncate(size - cut)
        assert read_records(path, strict=strict) == RECORDS[:-1]

    @pytest.mark.parametrize("strict", [False, True])
    def test_crc_damage_on_the_final_frame(self, tmp_path, strict):
        # The master died mid-overwrite of its last append: the frame is
        # full length but its bytes are wrong, and nothing follows — a
        # torn tail, not corruption, even under strict recovery.
        path = str(tmp_path / "wal.bin")
        write_frames(path, RECORDS)
        corrupt_payload_byte(path, len(RECORDS) - 1, RECORDS)
        assert read_records(path, strict=strict) == RECORDS[:-1]

    def test_empty_and_missing_files(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        assert read_records(path, strict=True) == []
        write_frames(path, [])
        assert read_records(path, strict=True) == []


class TestInteriorCorruption:
    """A bad frame with intact data behind it raises under strict scans."""

    @pytest.mark.parametrize("frame_index", [0, 1, 2])
    def test_crc_damage_mid_file_raises(self, tmp_path, frame_index):
        path = str(tmp_path / "wal.bin")
        write_frames(path, RECORDS)
        corrupt_payload_byte(path, frame_index, RECORDS)
        with pytest.raises(JournalCorrupt) as excinfo:
            read_records(path, strict=True)
        assert excinfo.value.reason == "crc mismatch"
        assert excinfo.value.offset == sum(
            len(pack_frame(r)) for r in RECORDS[:frame_index]
        )

    def test_non_strict_still_returns_the_prefix(self, tmp_path):
        # The default (non-recovery) contract is unchanged: scans such
        # as segment reopen keep treating any bad frame as end-of-log.
        path = str(tmp_path / "wal.bin")
        write_frames(path, RECORDS)
        corrupt_payload_byte(path, 1, RECORDS)
        assert read_records(path, strict=False) == RECORDS[:1]

    @pytest.mark.parametrize("trailing", [b"", pack_frame(("done", "b"))])
    def test_crc_valid_garbage_always_raises_strict(self, tmp_path, trailing):
        # Torn writes produce short or CRC-broken frames, never CRC-valid
        # garbage — so an unpicklable payload raises even at the tail.
        path = str(tmp_path / "wal.bin")
        with open(path, "wb") as fobj:
            fobj.write(pack_frame(RECORDS[0]))
            fobj.write(crc_valid_garbage_frame())
            fobj.write(trailing)
        with pytest.raises(JournalCorrupt) as excinfo:
            read_records(path, strict=True)
        assert excinfo.value.reason == "unpicklable payload"
        assert read_records(path, strict=False) == RECORDS[:1]


class TestMasterJournalLoad:
    """Recovery loads run strict on the manifest, the snapshot and the WAL."""

    def test_load_tolerates_torn_wal_tail(self, tmp_path):
        journal = MasterJournal(str(tmp_path))
        journal.write_manifest({"generation": 1})
        journal.write_snapshot([("spawn", 0)])
        journal.append(("assign", "a", 1))
        journal.append(("done", "a"))
        journal.close()
        wal_path = str(tmp_path / WAL_FILE)
        with open(wal_path, "r+b") as fobj:
            fobj.truncate(os.path.getsize(wal_path) - 3)
        header, records = MasterJournal.load(str(tmp_path))
        assert header == {"generation": 1}
        assert records == [("spawn", 0), ("assign", "a", 1)]

    def test_load_raises_on_interior_wal_corruption(self, tmp_path):
        journal = MasterJournal(str(tmp_path))
        appended = [("spawn", 0), ("assign", "a", 1), ("done", "a")]
        for record in appended:
            journal.append(record)
        journal.close()
        corrupt_payload_byte(str(tmp_path / WAL_FILE), 0, appended)
        with pytest.raises(JournalCorrupt):
            MasterJournal.load(str(tmp_path))

    def test_load_raises_on_snapshot_corruption(self, tmp_path):
        # The snapshot is written atomically, so *any* interior damage
        # there is real corruption — and its last frame is followed by
        # nothing, which strict mode treats as a tail; damage an
        # interior frame to model a bad disk under the checkpoint.
        journal = MasterJournal(str(tmp_path))
        snapshot_records = [("generation", 2), ("spawn", 0), ("done", "a")]
        journal.write_snapshot(snapshot_records)
        journal.close()
        corrupt_payload_byte(
            str(tmp_path / "snapshot.bin"), 1, snapshot_records
        )
        with pytest.raises(JournalCorrupt):
            MasterJournal.load(str(tmp_path))

    def test_load_raises_on_manifest_corruption(self, tmp_path):
        # The manifest is one frame, so it loads whole or not at all: a
        # CRC-valid frame that will not unpickle is corruption even at
        # the tail, and a frame with bytes behind it is interior damage.
        journal = MasterJournal(str(tmp_path))
        journal.write_manifest({"src": [b"chunk"]})
        journal.close()
        path = str(tmp_path / MANIFEST_FILE)
        with open(path, "ab") as fobj:
            fobj.write(b"x")
        corrupt_payload_byte(path, 0, [{"src": [b"chunk"]}])
        with pytest.raises(JournalCorrupt):
            MasterJournal.load(str(tmp_path))
        with open(path, "wb") as fobj:
            fobj.write(crc_valid_garbage_frame())
        with pytest.raises(JournalCorrupt):
            MasterJournal.load(str(tmp_path))

    def test_journal_corrupt_carries_context(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        write_frames(path, RECORDS)
        corrupt_payload_byte(path, 0, RECORDS)
        with pytest.raises(JournalCorrupt) as excinfo:
            read_records(path, strict=True)
        error = excinfo.value
        assert error.path == path
        assert error.offset == 0
        assert "not a torn tail" in str(error)
