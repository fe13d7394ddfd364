package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// TestFrameReaderMatchesScanner: the pooled frame reader splits any
// stream, read in any chunking and ended by EOF or by an error, into the
// lines bufio.Scanner's ScanLines yields (before the trailing-CR trim the
// caller's TrimSpace covers), then ends as the scanner ends: cleanly at
// EOF, with the read error otherwise. Lines run past the pooled buffer's
// 16 KiB and past the 1 MiB a pool keeps.
func TestFrameReaderMatchesScanner(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	errBroken := errors.New("connection reset")
	line := func() string {
		switch rng.Intn(8) {
		case 0:
			return ""
		case 1:
			return strings.Repeat("x", 20<<10+rng.Intn(100))
		case 2:
			return strings.Repeat("y", 1<<20+rng.Intn(100))
		}
		return strings.Repeat("z", rng.Intn(300))
	}
	for n := 0; n < 200; n++ {
		var sb strings.Builder
		for k := rng.Intn(6); k > 0; k-- {
			sb.WriteString(line())
			sb.WriteByte('\n')
		}
		if rng.Intn(2) == 0 {
			sb.WriteString(line()) // a last line without its newline
		}
		data := sb.String()
		broken := rng.Intn(3) == 0
		stream := func() io.Reader {
			var r io.Reader = strings.NewReader(data)
			switch rng.Intn(3) {
			case 0:
				r = iotest.HalfReader(r)
			case 1:
				r = iotest.DataErrReader(r)
			}
			if broken {
				r = io.MultiReader(r, iotest.ErrReader(errBroken))
			}
			return r
		}

		sc := bufio.NewScanner(stream())
		sc.Buffer(nil, maxFrame)
		var want []string
		for sc.Scan() {
			want = append(want, strings.TrimSuffix(sc.Text(), "\r"))
		}
		fr := newFrameReader(stream())
		var got []string
		var err error
		for {
			var b []byte
			if b, err = fr.next(); b == nil || err != nil {
				break
			}
			got = append(got, string(bytes.TrimSuffix(b, []byte("\r"))))
		}
		fr.release()
		if !slices.Equal(got, want) {
			t.Fatalf("stream %d: %d lines, scanner %d", n, len(got), len(want))
		}
		if !errors.Is(err, sc.Err()) || (broken && !errors.Is(err, errBroken)) {
			t.Fatalf("stream %d: err = %v, scanner %v", n, err, sc.Err())
		}
	}
}
