package main

import (
	"bytes"
	"testing"

	"aqe/internal/expr"
	"aqe/internal/server"
)

// TestWireClientsMatchServerClient pins the benchmark's own readers byte
// for byte against server.Client on three statements whose row order is
// fully determined (so two executions return identical streams): the rows
// server.Client decodes, re-encoded, must be exactly the bytes the
// benchmark's binary client saw in the Rows frames and its NDJSON reader
// saw in the rows lines — and the checksums taken over them must be the
// oracle's.
func TestWireClientsMatchServerClient(t *testing.T) {
	e, err := setUp(findWorkload("adhoc_cold"), true, fixProcs())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ref, err := server.Dial(e.bin, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	cl, err := newClients(e, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	cl.bin.keep, cl.http.keep = true, true

	for _, name := range []string{"q1", "q3", "nation"} {
		si := -1
		for i, s := range e.stmts {
			if s.name == name {
				si = i
			}
		}
		s := e.stmts[si]
		if !s.refs[0].Ordered {
			t.Fatalf("%s: the oracle found ties in the sort keys; pick another statement", name)
		}
		want, err := ref.Query(s.sqlFor(0), 0)
		if err != nil {
			t.Fatalf("%s via server.Client: %v", name, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s returns no rows; the comparison would be empty", name)
		}
		var wantBin, wantText []byte
		for _, row := range want.Rows {
			wantBin = appendBinaryRow(wantBin, row, want.Types)
			line, err := appendJSONRow(nil, server.FormatRow(row, want.Types))
			if err != nil {
				t.Fatal(err)
			}
			wantText = append(append(wantText, line...), '\n')
		}

		got, err := cl.send(request{stmt: si, proto: protoBinary}, 0)
		if err != nil {
			t.Fatalf("%s via the bench's binary client: %v", name, err)
		}
		var gotBin []byte
		for _, p := range got.payloads {
			gotBin = append(gotBin, p[4:]...) // after the frame's row count
		}
		if !bytes.Equal(gotBin, wantBin) {
			t.Errorf("%s: binary row bytes differ from server.Client's rows re-encoded", name)
		}
		if got.rows != len(want.Rows) || got.stats.Rows != want.Stats.Rows {
			t.Errorf("%s: binary client counted %d rows (Done frame %d), server.Client %d",
				name, got.rows, got.stats.Rows, len(want.Rows))
		}
		for j, k := range got.kinds {
			if got.cols[j] != want.Cols[j] || k != want.Types[j].Kind {
				t.Errorf("%s: column %d is %s/%v, server.Client says %s/%v",
					name, j, got.cols[j], k, want.Cols[j], want.Types[j].Kind)
			}
		}
		if !s.refs[0].matches(got, protoBinary) {
			t.Errorf("%s: binary checksum differs from the oracle's", name)
		}

		got, err = cl.send(request{stmt: si, proto: protoHTTP}, 0)
		if err != nil {
			t.Fatalf("%s via the bench's NDJSON client: %v", name, err)
		}
		var gotText []byte
		for _, line := range got.payloads {
			// {"rows":[[...],[...]]} -> one row per line, brackets off.
			body := bytes.TrimSuffix(bytes.TrimPrefix(bytes.TrimSpace(line), []byte(`{"rows":[[`)), []byte(`]]}`))
			for _, row := range bytes.Split(body, []byte(`],[`)) {
				gotText = append(append(gotText, row...), '\n')
			}
		}
		if !bytes.Equal(gotText, wantText) {
			t.Errorf("%s: NDJSON rows differ from server.Client's rows formatted", name)
		}
		if !s.refs[0].matches(got, protoHTTP) {
			t.Errorf("%s: NDJSON checksum differs from the oracle's", name)
		}
	}
}

func TestSumJSONRowsSkipsBracketsInStrings(t *testing.T) {
	var got, want checksum
	n, err := sumJSONRows([]byte(`{"rows":[["a]b","c\"],[d"],["e","f"]]}`+"\n"), &got)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v, want 2 rows", n, err)
	}
	want.addRow([]byte(`"a]b","c\"],[d"`))
	want.addRow([]byte(`"e","f"`))
	if got != want {
		t.Fatalf("checksum %v, want %v", got, want)
	}
}

func TestSumBinaryRowsRejectsTruncation(t *testing.T) {
	kinds := []expr.Kind{expr.KInt, expr.KString}
	row := appendBinaryRow(nil, []expr.Datum{{I: 7}, {S: "abc"}},
		[]expr.Type{{Kind: expr.KInt}, {Kind: expr.KString}})
	frame := append([]byte{1, 0, 0, 0}, row...)
	var sum checksum
	if n, err := sumBinaryRows(frame, kinds, &sum); err != nil || n != 1 {
		t.Fatalf("n=%d err=%v on a well-formed frame", n, err)
	}
	if _, err := sumBinaryRows(frame[:len(frame)-1], kinds, &sum); err == nil {
		t.Fatal("a truncated frame was accepted")
	}
}
