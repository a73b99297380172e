package engine

import (
	"bytes"
	"encoding/binary"
	"testing"

	"flashdc/internal/crcx"
	"flashdc/internal/envelope"
	"flashdc/internal/hier"
)

// fuzzHier is campaignHier shrunk to 2MB of Flash (4 blocks a shard),
// so each execution builds and restores a small engine.
func fuzzHier() hier.Config {
	hc := campaignHier(9)
	hc.FlashBytes = 2 << 20
	hc.Flash.FlashBytes = 2 << 20
	return hc
}

// fdckEnvelope wraps a gob payload in an intact FDCK envelope, so a
// mutated payload reaches Restore instead of failing the CRC.
func fdckEnvelope(payload []byte) []byte {
	buf := make([]byte, envelope.HeaderSize, envelope.HeaderSize+len(payload)+crcx.Size)
	copy(buf, checkpointMagic)
	binary.LittleEndian.PutUint32(buf[4:], checkpointVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(payload)))
	buf = append(buf, payload...)
	return crcx.Append(buf, crcx.Checksum(buf))
}

// FuzzRestoreCheckpoint asserts the campaign-restore contract over
// arbitrary checkpoint payloads: reading and restoring never panics,
// a checkpoint the engine rejects leaves its state byte-identical, and
// a checkpoint it accepts passes the integrity audit and keeps serving
// requests. The seeds are a real 2-shard checkpoint with
// faults, scrub, retention and disturb in flight, plus truncations.
func FuzzRestoreCheckpoint(f *testing.F) {
	hc := fuzzHier()
	e, err := New(Config{Shards: 2, Hier: hc})
	if err != nil {
		f.Fatal(err)
	}
	feed(e, campaignReqs(31, 3000))
	ck, err := e.Checkpoint("fp", 3000)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		f.Fatal(err)
	}
	payload := buf.Bytes()[envelope.HeaderSize : buf.Len()-crcx.Size]
	f.Add(payload)
	for _, n := range []int{0, 1, len(payload) / 4, len(payload) / 2, len(payload) - 1} {
		f.Add(payload[:n])
	}
	replay := campaignReqs(33, 500)

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ReadCheckpoint(bytes.NewReader(fdckEnvelope(data)))
		if err != nil {
			return
		}
		e, err := New(Config{Shards: 2, Hier: hc})
		if err != nil {
			t.Fatal(err)
		}
		before := checkpointBytes(t, e, "fp", 0)
		if err := e.Restore(ck); err != nil {
			if after := checkpointBytes(t, e, "fp", 0); !bytes.Equal(after, before) {
				t.Fatalf("rejected checkpoint (%v) changed the engine's state", err)
			}
			return
		}
		if err := e.CheckIntegrity(); err != nil {
			t.Fatalf("accepted checkpoint fails the integrity audit: %v", err)
		}
		feed(e, replay)
	})
}
