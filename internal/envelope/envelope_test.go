package envelope

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"flashdc/internal/crcx"
)

const (
	testMagic   = "TEST"
	testVersion = 3
)

type testPayload struct {
	Name  string
	Pages []int64
	Ratio float64
}

func encode(t *testing.T, payload any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, testMagic, testVersion, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal returns a copy of img with the header patched by edit and the
// CRC trailer recomputed, so the image fails only the check edit
// targets rather than the CRC.
func reseal(img []byte, edit func(b []byte)) []byte {
	body := append([]byte(nil), img[:len(img)-crcx.Size]...)
	edit(body)
	return crcx.Append(body, crcx.Checksum(body))
}

func TestRoundTrip(t *testing.T) {
	in := testPayload{Name: "fdc", Pages: []int64{1, 5, 1 << 40}, Ratio: 0.25}
	img := encode(t, in)
	if string(img[:MagicSize]) != testMagic {
		t.Fatalf("image starts %q, want magic %q", img[:MagicSize], testMagic)
	}
	if got, want := len(img), HeaderSize+int(binary.LittleEndian.Uint64(img[8:]))+crcx.Size; got != want {
		t.Fatalf("image is %d bytes, header implies %d", got, want)
	}
	var out testPayload
	if err := Read(bytes.NewReader(img), testMagic, testVersion, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
}

// TestReadRejectsCorruptImages: every damaged image wraps ErrCorrupt,
// and a failure found before gob decoding begins leaves out untouched.
func TestReadRejectsCorruptImages(t *testing.T) {
	good := encode(t, testPayload{Name: "fdc", Pages: []int64{7, 8}, Ratio: 1})
	plen := binary.LittleEndian.Uint64(good[8:])

	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0xfe, 0x00, 0x13, 0x37}
	garbageImg := make([]byte, HeaderSize, HeaderSize+len(garbage)+crcx.Size)
	copy(garbageImg, testMagic)
	binary.LittleEndian.PutUint32(garbageImg[4:], testVersion)
	binary.LittleEndian.PutUint64(garbageImg[8:], uint64(len(garbage)))
	garbageImg = append(garbageImg, garbage...)
	garbageImg = crcx.Append(garbageImg, crcx.Checksum(garbageImg))

	flip := func(img []byte, i int) []byte {
		b := append([]byte(nil), img...)
		b[i] ^= 0x40
		return b
	}

	cases := []struct {
		name string
		data []byte
		// want is a fragment of the message of the check that must
		// reject the image.
		want string
		// decodes marks images that pass every envelope check, so gob
		// decoding begins and out may be partially written.
		decodes bool
	}{
		{name: "empty", data: nil, want: "truncated"},
		{name: "truncated header", data: good[:HeaderSize], want: "truncated"},
		{name: "truncated image", data: good[:len(good)-1], want: "payload length"},
		{name: "foreign magic", data: reseal(good, func(b []byte) { copy(b, "FDCK") }), want: "bad magic"},
		{name: "version skew", data: reseal(good, func(b []byte) {
			binary.LittleEndian.PutUint32(b[4:], testVersion+1)
		}), want: "format version"},
		{name: "payload length mismatch", data: reseal(good, func(b []byte) {
			binary.LittleEndian.PutUint64(b[8:], plen+1)
		}), want: "payload length"},
		{name: "flipped CRC byte", data: flip(good, len(good)-2), want: "CRC"},
		{name: "flipped payload byte", data: flip(good, HeaderSize+1), want: "CRC"},
		{name: "garbage gob payload", data: garbageImg, want: "decoding payload", decodes: true},
		{name: "mismatched gob type", data: encode(t, "not a testPayload"), want: "decoding payload", decodes: true},
	}
	sentinel := testPayload{Name: "untouched", Pages: []int64{42}, Ratio: 9}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := sentinel
			out.Pages = []int64{42}
			err := Read(bytes.NewReader(tc.data), testMagic, testVersion, &out)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Read = %v, want ErrCorrupt from the %q check", err, tc.want)
			}
			if !tc.decodes && !reflect.DeepEqual(out, sentinel) {
				t.Fatalf("out modified to %+v on a pre-decode failure", out)
			}
		})
	}
}

// TestReadReaderError: a failing reader is reported as ErrCorrupt too.
func TestReadReaderError(t *testing.T) {
	var out testPayload
	err := Read(iotest.ErrReader(errors.New("disk gone")), testMagic, testVersion, &out)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read = %v, want ErrCorrupt", err)
	}
}

func TestWrongMagicLengthPanics(t *testing.T) {
	for _, magic := range []string{"", "FDC", "FDCKX"} {
		for name, call := range map[string]func(){
			"Write": func() { _ = Write(new(bytes.Buffer), magic, testVersion, 1) },
			"Read":  func() { _ = Read(bytes.NewReader(nil), magic, testVersion, new(int)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with magic %q did not panic", name, magic)
					}
				}()
				call()
			}()
		}
	}
}
