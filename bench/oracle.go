package main

import (
	"fmt"
	"sync"

	"aqe/internal/exec"
	"aqe/internal/expr"
	"aqe/internal/plan"
	"aqe/internal/rt/sink"
	"aqe/internal/sql"
	"aqe/internal/storage"
	"aqe/internal/tpch"
	"aqe/internal/volcano"
)

// ref is the oracle's answer for one (statement, binding): what the
// Volcano interpreter — never a compiled tier — returned, reduced to a
// row count and one checksum per wire encoding.
type ref struct {
	Rows int      `json:"rows"`
	Bin  checksum `json:"bin"`  // over the binary row encoding
	Text checksum `json:"text"` // over the NDJSON row encoding
	// Ordered says the statement ends in an ORDER BY whose keys rank the
	// reference rows without ties, so the response order is checked too.
	// With ties the order among equals is unspecified and only the
	// multiset is compared.
	Ordered bool `json:"ordered"`
}

// matches compares a response against the reference.
func (r *ref) matches(res *response, p proto) bool {
	want := r.Bin
	if p == protoHTTP {
		want = r.Text
	}
	if res.rows != r.Rows || res.sum.Sum != want.Sum {
		return false
	}
	return !r.Ordered || res.sum.Seq == want.Seq
}

// volcanoStages runs a (possibly multi-stage) plan query through the
// interpreter, materializing stage results the way the engine does.
func volcanoStages(q plan.Query) ([][]expr.Datum, plan.Node, error) {
	prior := map[string]*storage.Table{}
	for i, st := range q.Stages {
		node := st.Build(prior)
		rows, err := volcano.Run(node)
		if err != nil {
			return nil, nil, fmt.Errorf("%s stage %s: %w", q.Name, st.Name, err)
		}
		if i == len(q.Stages)-1 {
			return rows, node, nil
		}
		prior[st.Name] = resultOf(rows, node).ToTable(st.Name)
	}
	return nil, nil, fmt.Errorf("%s has no stages", q.Name)
}

func resultOf(rows [][]expr.Datum, node plan.Node) *exec.Result {
	res := &exec.Result{Rows: rows}
	for _, c := range node.Schema() {
		res.Cols = append(res.Cols, c.Name)
		res.Types = append(res.Types, c.T)
	}
	return res
}

// reference computes the oracle's answer for binding b of s.
func reference(cat *storage.Catalog, s *stmt, b int) (ref, error) {
	var rows [][]expr.Datum
	var root plan.Node
	var err error
	if s.kind == kindTPCH {
		rows, root, err = volcanoStages(tpch.Query(cat, s.tpch))
	} else {
		if root, err = sql.Plan(s.sqlFor(b), cat); err == nil {
			rows, err = volcano.Run(root)
		}
	}
	if err != nil {
		return ref{}, fmt.Errorf("oracle %s[%d]: %w", s.name, b, err)
	}
	return refOf(rows, root)
}

// refOf reduces reference rows to their checksums.
func refOf(rows [][]expr.Datum, root plan.Node) (ref, error) {
	r := ref{Rows: len(rows)}
	if ob, ok := root.(*plan.OrderBy); ok {
		r.Ordered = true
		for i := 1; i < len(rows); i++ {
			if sink.CmpRows(rows[i-1], rows[i], ob.Keys) == 0 {
				r.Ordered = false
				break
			}
		}
	}
	types := make([]expr.Type, 0, len(root.Schema()))
	for _, c := range root.Schema() {
		types = append(types, c.T)
	}
	var buf []byte
	cells := make([]string, len(types))
	for _, row := range rows {
		buf = appendBinaryRow(buf[:0], row, types)
		r.Bin.addRow(buf)
		for j, d := range row {
			cells[j] = exec.Format(d, types[j])
		}
		var err error
		if buf, err = appendJSONRow(buf[:0], cells); err != nil {
			return ref{}, err
		}
		r.Text.addRow(buf)
	}
	return r, nil
}

// fillRefs runs the oracle over every (statement, binding), spread over
// procs goroutines: the runs only read the catalog.
func fillRefs(cat *storage.Catalog, stmts []*stmt, procs int) error {
	type job struct {
		s *stmt
		b int
	}
	var jobs []job
	for _, s := range stmts {
		s.refs = make([]ref, len(s.pool))
		for b := range s.pool {
			jobs = append(jobs, job{s, b})
		}
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				r, err := reference(cat, jobs[i].s, jobs[i].b)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				jobs[i].s.refs[jobs[i].b] = r
			}
		}()
	}
	wg.Wait()
	return first
}
