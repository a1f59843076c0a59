package aqe

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"aqe/internal/exec"
	"aqe/internal/expr"
	"aqe/internal/sql"
)

// Value is a typed scalar used as a prepared-statement binding. Build
// one with ParseLiteral or the expr constructors re-exported below.
type Value = expr.Const

// ParseLiteral parses one SQL literal (number, 'string', DATE '...')
// into a binding value.
func ParseLiteral(src string) (*Value, error) { return sql.ParseLiteral(src) }

// Session is per-client state on a shared DB: a tenant identity every
// query is admitted and scheduled under, plus named prepared statements.
// Sessions are cheap, independent, and safe for concurrent use; the
// compiled form of a prepared statement lives in the engine's
// fingerprint cache, so sessions preparing the same statement share it.
type Session struct {
	db     *DB
	tenant string

	mu       sync.Mutex
	prepared map[string]string // name -> SELECT body
}

// NewSession creates a session. tenant may be "" for untenanted use.
func (db *DB) NewSession(tenant string) *Session {
	return &Session{db: db, tenant: tenant, prepared: map[string]string{}}
}

// Tenant returns the session's tenant identity.
func (s *Session) Tenant() string { return s.tenant }

// Prepare registers a named parameterized statement ($1, $2, ... refer
// to EXECUTE binding values). The body is syntax-checked now; binding
// and planning happen per EXECUTE, when the parameter types are known —
// the plan-fingerprint cache makes every execution after the first skip
// translation and compilation entirely.
func (s *Session) Prepare(name, body string) error {
	if name == "" {
		return fmt.Errorf("aqe: prepared statement needs a name")
	}
	st, err := sql.ParseStmt("PREPARE " + name + " AS " + body)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.prepared[name] = st.Body
	s.mu.Unlock()
	return nil
}

// Deallocate removes a prepared statement.
func (s *Session) Deallocate(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.prepared[name]; !ok {
		return fmt.Errorf("aqe: prepared statement %q does not exist", name)
	}
	delete(s.prepared, name)
	return nil
}

// Prepared lists the session's prepared statement names, sorted.
func (s *Session) Prepared() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.prepared))
	for n := range s.prepared {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Rows is a window of result rows in the engine's own output records,
// as handed to an emit callback (see exec.Rows, exec.RunOpts.Emit).
type Rows = exec.Rows

// Execute runs a prepared statement under the given binding values.
func (s *Session) Execute(ctx context.Context, name string, args []*Value) (*Result, error) {
	return s.ExecuteTo(ctx, name, args, nil)
}

// ExecuteTo is Execute with the result rows handed to emit instead of
// boxed into Result.Rows (nil emit: same as Execute). The wire front end
// encodes from these windows; see exec.RunOpts.Emit for when the calls
// happen and what an error from emit does.
func (s *Session) ExecuteTo(ctx context.Context, name string, args []*Value, emit func(Rows) error) (*Result, error) {
	s.mu.Lock()
	body, ok := s.prepared[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("aqe: prepared statement %q does not exist", name)
	}
	if args == nil {
		args = []*Value{}
	}
	node, _, bound, err := sql.PlanBind(body, s.db.cat, args)
	if err != nil {
		return nil, err
	}
	return s.db.eng.RunPlanOpts(ctx, node, "sql:"+name,
		exec.RunOpts{Tenant: s.tenant, Params: bound, Emit: emit})
}

// Exec parses and runs one statement: PREPARE / EXECUTE / DEALLOCATE
// manage the session's prepared statements (returning an empty result),
// anything else plans and runs as a query under the session's tenant.
func (s *Session) Exec(ctx context.Context, stmt string) (*Result, error) {
	return s.ExecTo(ctx, stmt, nil)
}

// ExecTo is Exec with the result rows handed to emit (see ExecuteTo).
func (s *Session) ExecTo(ctx context.Context, stmt string, emit func(Rows) error) (*Result, error) {
	st, err := sql.ParseStmt(stmt)
	if err != nil {
		return nil, err
	}
	switch st.Kind {
	case sql.StmtPrepare:
		s.mu.Lock()
		s.prepared[st.Name] = st.Body
		s.mu.Unlock()
		return &Result{}, nil
	case sql.StmtExecute:
		return s.ExecuteTo(ctx, st.Name, st.Args, emit)
	case sql.StmtDeallocate:
		if err := s.Deallocate(st.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	node, err := sql.Plan(st.Body, s.db.cat)
	if err != nil {
		return nil, err
	}
	return s.db.eng.RunPlanOpts(ctx, node, "sql", exec.RunOpts{Tenant: s.tenant, Emit: emit})
}

// ExecQuery runs a (possibly multi-stage) plan query under the
// session's tenant — the plan-DSL counterpart of Exec.
func (s *Session) ExecQuery(ctx context.Context, q Query) (*Result, error) {
	return s.ExecQueryTo(ctx, q, nil)
}

// ExecQueryTo is ExecQuery with the final stage's rows handed to emit
// (see ExecuteTo).
func (s *Session) ExecQueryTo(ctx context.Context, q Query, emit func(Rows) error) (*Result, error) {
	return s.db.eng.RunCtxOpts(ctx, q, exec.RunOpts{Tenant: s.tenant, Emit: emit})
}
