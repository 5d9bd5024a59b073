package policy

import (
	"encoding/json"
	"fmt"

	"iatsim/internal/cache"
	"iatsim/internal/jsonbuf"
)

// Policy snapshot/restore: every policy can serialise its internal state
// (comparison baselines, hysteresis streaks) so a checkpointed daemon
// resumes deciding exactly where it left off. The encodings are JSON
// over structs of exported scalar fields — field order is the struct
// order and no maps are involved, so identical state always yields
// identical bytes (the determinism regime the checkpoint envelope's
// byte-compare guarantee rests on).

// iatState is IAT's serialised form.
type iatState struct {
	Prev Sample `json:"prev"`
	Have bool   `json:"have"`
}

// AppendSnapshot implements Policy.
func (p *IAT) AppendSnapshot(dst []byte) ([]byte, error) {
	p.snap = iatState{Prev: p.prev, Have: p.have}
	return jsonbuf.Append(dst, &p.snap)
}

// Restore implements Policy.
func (p *IAT) Restore(data []byte) error {
	var st iatState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore iat: %w", err)
	}
	p.prev, p.have = st.Prev, st.Have
	return nil
}

// staticState is Static's serialised form. Ways is configuration, but it
// is carried so a restore into a differently-configured instance is
// rejected instead of silently changing the target.
type staticState struct {
	Ways int `json:"ways"`
}

// AppendSnapshot implements Policy.
func (p *Static) AppendSnapshot(dst []byte) ([]byte, error) {
	p.snap = staticState{Ways: p.ways}
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
	return nil
}

// iocaState is IOCAStyle's serialised form.
type iocaState struct {
	Hot  int `json:"hot"`
	Cold int `json:"cold"`
}

// AppendSnapshot implements Policy.
func (p *IOCAStyle) AppendSnapshot(dst []byte) ([]byte, error) {
	p.snap = iocaState{Hot: p.hot, Cold: p.cold}
	return jsonbuf.Append(dst, &p.snap)
}

// Restore implements Policy.
func (p *IOCAStyle) Restore(data []byte) error {
	var st iocaState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore ioca: %w", err)
	}
	p.hot, p.cold = st.Hot, st.Cold
	return nil
}

// greedyState is Greedy's serialised form: Greedy is memoryless, so it
// is empty.
type greedyState struct{}

// AppendSnapshot implements Policy.
func (p *Greedy) AppendSnapshot(dst []byte) ([]byte, error) {
	return jsonbuf.Append(dst, &greedyState{})
}

// Restore implements Policy.
func (p *Greedy) Restore(data []byte) error {
	var st greedyState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore greedy: %w", err)
	}
	return nil
}

// baselineState is Baseline's serialised form. IOIso is configuration,
// carried so a Core-only snapshot is not restored into I/O-iso or back.
type baselineState struct {
	IOIso bool          `json:"io_iso"`
	Prev  Sample        `json:"prev"`
	Have  bool          `json:"have"`
	Order []int         `json:"order,omitempty"`
	DDIO  cache.WayMask `json:"ddio"`
}

// AppendSnapshot implements Policy.
func (p *Baseline) AppendSnapshot(dst []byte) ([]byte, error) {
	p.snap = baselineState{IOIso: p.ioIso, Prev: p.prev, Have: p.have, Order: p.order, DDIO: p.ddio}
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
	p.prev, p.have, p.ddio = st.Prev, st.Have, st.DDIO
	p.order = append(p.order[:0], st.Order...)
	return nil
}
