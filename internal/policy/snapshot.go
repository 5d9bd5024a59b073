package policy

import (
	"encoding/json"
	"fmt"

	"iatsim/internal/cache"
	"iatsim/internal/jsonbuf"
)

// Policy snapshot/restore: every policy can serialise its internal state
// (comparison baselines, hysteresis streaks, health counters) so a
// checkpointed daemon resumes deciding exactly where it left off. The
// encodings are JSON over structs of exported scalar fields — field
// order is the struct order and no maps are involved, so identical
// state always yields identical bytes (the determinism regime the
// checkpoint envelope's byte-compare guarantee rests on).

// iatState is IAT's serialised form.
type iatState struct {
	Cur     Sample `json:"cur"`
	HaveCur bool   `json:"have_cur"`
	Prev    Sample `json:"prev"`
	Have    bool   `json:"have"`
	H       Health `json:"health"`
}

// AppendSnapshot implements Policy.
func (p *IAT) AppendSnapshot(dst []byte) ([]byte, error) {
	p.snap = iatState{Cur: p.cur, HaveCur: p.haveCur, Prev: p.prev, Have: p.have, H: p.h}
	return jsonbuf.Append(dst, &p.snap)
}

// Restore implements Policy.
func (p *IAT) Restore(data []byte) error {
	var st iatState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore iat: %w", err)
	}
	p.cur, p.haveCur, p.prev, p.have, p.h = st.Cur, st.HaveCur, st.Prev, st.Have, st.H
	return nil
}

// staticState is Static's serialised form. Ways is configuration, but it
// is carried so a restore into a differently-configured instance is
// rejected instead of silently changing the target.
type staticState struct {
	Ways int    `json:"ways"`
	Cur  Sample `json:"cur"`
	H    Health `json:"health"`
}

// AppendSnapshot implements Policy.
func (p *Static) AppendSnapshot(dst []byte) ([]byte, error) {
	p.snap = staticState{Ways: p.ways, Cur: p.cur, H: p.h}
	return jsonbuf.Append(dst, &p.snap)
}

// Restore implements Policy.
func (p *Static) Restore(data []byte) error {
	var st staticState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore static: %w", err)
	}
	if st.Ways != p.ways {
		return fmt.Errorf("policy: restore static: snapshot is for static:%d, this instance is static:%d", st.Ways, p.ways)
	}
	p.cur, p.h = st.Cur, st.H
	return nil
}

// iocaState is IOCAStyle's serialised form.
type iocaState struct {
	Cur  Sample `json:"cur"`
	Hot  int    `json:"hot"`
	Cold int    `json:"cold"`
	H    Health `json:"health"`
}

// AppendSnapshot implements Policy.
func (p *IOCAStyle) AppendSnapshot(dst []byte) ([]byte, error) {
	p.snap = iocaState{Cur: p.cur, Hot: p.hot, Cold: p.cold, H: p.h}
	return jsonbuf.Append(dst, &p.snap)
}

// Restore implements Policy.
func (p *IOCAStyle) Restore(data []byte) error {
	var st iocaState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore ioca: %w", err)
	}
	p.cur, p.hot, p.cold, p.h = st.Cur, st.Hot, st.Cold, st.H
	return nil
}

// greedyState is Greedy's serialised form (memoryless beyond the last
// sample and the health counters).
type greedyState struct {
	Cur Sample `json:"cur"`
	H   Health `json:"health"`
}

// AppendSnapshot implements Policy.
func (p *Greedy) AppendSnapshot(dst []byte) ([]byte, error) {
	p.snap = greedyState{Cur: p.cur, H: p.h}
	return jsonbuf.Append(dst, &p.snap)
}

// Restore implements Policy.
func (p *Greedy) Restore(data []byte) error {
	var st greedyState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore greedy: %w", err)
	}
	p.cur, p.h = st.Cur, st.H
	return nil
}

// baselineState is Baseline's serialised form. IOIso is configuration,
// carried so a Core-only snapshot is not restored into I/O-iso or back.
type baselineState struct {
	IOIso bool          `json:"io_iso"`
	Cur   Sample        `json:"cur"`
	Prev  Sample        `json:"prev"`
	Have  bool          `json:"have"`
	Order []int         `json:"order,omitempty"`
	DDIO  cache.WayMask `json:"ddio"`
	H     Health        `json:"health"`
}

// AppendSnapshot implements Policy.
func (p *Baseline) AppendSnapshot(dst []byte) ([]byte, error) {
	p.snap = baselineState{IOIso: p.ioIso, Cur: p.cur, Prev: p.prev, Have: p.have,
		Order: p.order, DDIO: p.ddio, H: p.h}
	return jsonbuf.Append(dst, &p.snap)
}

// Restore implements Policy.
func (p *Baseline) Restore(data []byte) error {
	var st baselineState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore %s: %w", p.Name(), err)
	}
	if st.IOIso != p.ioIso {
		return fmt.Errorf("policy: restore %s: snapshot is for another baseline", p.Name())
	}
	p.cur, p.prev, p.have, p.ddio, p.h = st.Cur, st.Prev, st.Have, st.DDIO, st.H
	p.order = append(p.order[:0], st.Order...)
	return nil
}
