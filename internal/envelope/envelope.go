// Package envelope implements the self-validating on-disk container
// shared by everything the simulator persists: the Flash metadata
// image (core.SaveMetadata, magic "FDCM" v3) and the full-campaign
// checkpoint (engine.WriteCheckpoint, magic "FDCK" v1). Both carry the
// same core.CacheCheckpoint — the metadata image with what a power
// cycle loses cleared, the campaign checkpoint once per shard — and
// both restore through core's one validator; the envelope only proves
// the bytes intact. The layout is
//
//	offset 0   magic, 4 bytes (caller-chosen, e.g. "FDCM")
//	offset 4   format version, uint32 little-endian
//	offset 8   payload length, uint64 little-endian
//	offset 16  gob-encoded payload
//	trailer    CRC-32 over header+payload (crcx engine, 4 bytes LE)
//
// A file that lives on the very disk a crash may tear mid-write must
// prove itself before anything trusts it: Read refuses truncation,
// foreign magic, version skew, length mismatch, CRC damage and gob
// decode failures, all tagged ErrCorrupt for errors.Is.
package envelope

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"flashdc/internal/crcx"
)

// ErrCorrupt tags every validation failure Read reports: the bytes do
// not form an intact envelope of the expected kind.
var ErrCorrupt = errors.New("envelope: corrupt image")

// HeaderSize is the fixed prefix: magic + version + payload length.
const HeaderSize = 16

// MagicSize is the required magic length.
const MagicSize = 4

// Write wraps the gob encoding of payload in the envelope and writes
// it to w in a single Write call (an all-or-nothing torn-write unit as
// far as this process is concerned; the CRC catches the rest). The
// magic must be exactly MagicSize bytes — that is a compile-time
// constant at every call site, so a violation panics.
func Write(w io.Writer, magic string, version uint32, payload any) error {
	if len(magic) != MagicSize {
		panic(fmt.Sprintf("envelope: magic %q must be %d bytes", magic, MagicSize))
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(payload); err != nil {
		return fmt.Errorf("envelope: encoding payload: %w", err)
	}
	buf := make([]byte, HeaderSize, HeaderSize+body.Len()+crcx.Size)
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[4:], version)
	binary.LittleEndian.PutUint64(buf[8:], uint64(body.Len()))
	buf = append(buf, body.Bytes()...)
	buf = crcx.Append(buf, crcx.Checksum(buf))
	_, err := w.Write(buf)
	return err
}

// Read consumes r to EOF, validates the envelope against the expected
// magic and version, and gob-decodes the payload into out (a pointer).
// Every validation failure wraps ErrCorrupt; out is untouched unless
// decoding began.
func Read(r io.Reader, magic string, version uint32, out any) error {
	if len(magic) != MagicSize {
		panic(fmt.Sprintf("envelope: magic %q must be %d bytes", magic, MagicSize))
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%w: reading image: %v", ErrCorrupt, err)
	}
	if len(data) < HeaderSize+crcx.Size {
		return fmt.Errorf("%w: truncated at %d bytes (header needs %d)",
			ErrCorrupt, len(data), HeaderSize+crcx.Size)
	}
	if string(data[:MagicSize]) != magic {
		return fmt.Errorf("%w: bad magic %q, want %q", ErrCorrupt, data[:MagicSize], magic)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != version {
		return fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, v, version)
	}
	plen := binary.LittleEndian.Uint64(data[8:])
	if plen != uint64(len(data)-HeaderSize-crcx.Size) {
		return fmt.Errorf("%w: payload length %d but %d bytes present",
			ErrCorrupt, plen, len(data)-HeaderSize-crcx.Size)
	}
	body := data[:len(data)-crcx.Size]
	want := crcx.Extract(data[len(data)-crcx.Size:])
	if got := crcx.Checksum(body); got != want {
		return fmt.Errorf("%w: CRC %08x, trailer says %08x", ErrCorrupt, got, want)
	}
	if err := gob.NewDecoder(bytes.NewReader(body[HeaderSize:])).Decode(out); err != nil {
		return fmt.Errorf("%w: decoding payload: %v", ErrCorrupt, err)
	}
	return nil
}
