package main

import (
	"bytes"
	"net/http"
	"testing"
)

func TestCheckerCatchesOneFlippedByte(t *testing.T) {
	_, timed := pointInputs(11, 64)
	ref := NewReference()
	for _, req := range timed[:16] {
		want, err := ref.Bytes(req)
		if err != nil {
			t.Fatal(err)
		}
		// The digest the generator takes while streaming equals the
		// reference digest of the same bytes, in any chunking.
		var sc bodyScanner
		for rest := want; len(rest) > 0; {
			n := min(7, len(rest))
			sc.Write(rest[:n])
			rest = rest[n:]
		}
		good := Outcome{Status: http.StatusOK, Digest: Digest{Len: sc.n, Sum: sc.crc}, Lines: sc.lines}
		if req.Kind != "sweep" && good.Lines != 1 {
			t.Fatalf("%s: %d lines, want 1", req.Path, good.Lines)
		}
		for i := range want {
			flipped := bytes.Clone(want)
			flipped[i] ^= 0x20
			bad := good
			bad.Digest = digestOf(flipped)
			failed, err := Verify([]Request{req, req}, []Outcome{good, bad}, ref, func(int) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			if failed != 1 {
				t.Fatalf("%s: flipping byte %d gave %d failures, want 1", req.Path, i, failed)
			}
		}
	}
}

func TestCheckerCountsBadAnswers(t *testing.T) {
	_, timed := mustStudy(t, 3, 0, 1)
	req := timed[0]
	cases := map[string]Outcome{
		"status":    {Status: http.StatusTooManyRequests, Lines: req.Rows},
		"rows":      {Status: http.StatusOK, Lines: req.Rows - 1},
		"in-band":   {Status: http.StatusOK, Lines: req.Rows, ErrLine: true},
		"transport": {Err: http.ErrHandlerTimeout},
	}
	for name, o := range cases {
		// Unchecked (not in the byte-check sample) and still failed.
		failed, err := Verify([]Request{req}, []Outcome{o}, nil, func(int) bool { return false })
		if err != nil || failed != 1 {
			t.Errorf("%s: failed=%d err=%v, want one failure", name, failed, err)
		}
	}
}

func TestBodyScannerFindsInBandErrorLine(t *testing.T) {
	var sc bodyScanner
	sc.Write([]byte("{\"index\":0}\n{\"ind"))
	sc.Write([]byte("ex\":1}\n{\"err"))
	sc.Write([]byte("or\":{\"code\":\"deadline_exceeded\"}}\n"))
	if sc.lines != 3 || !bytes.HasPrefix(sc.lastHead, errorLinePrefix) {
		t.Fatalf("lines=%d last=%q, want 3 lines ending in an error line", sc.lines, sc.lastHead)
	}
}
