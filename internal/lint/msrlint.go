package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// MSRLint flags hex integer literals that land in the platform's
// architectural MSR address ranges anywhere outside internal/msr. The
// paper's pqos-style layering puts every register access behind the typed
// msr.File / internal/rdt API; a raw 0xC90-class literal in a simulation
// or control-plane package is a layering leak waiting to diverge from the
// register file's accounting (the Fig. 15 overhead model counts File
// operations, so side-channel register pokes would silently corrupt it).
//
// Only hex-spelled literals are matched: the ranges are memorable as hex
// addresses, and matching decimals would trip ordinary scalar constants.
var MSRLint = &Analyzer{
	Name: "msrlint",
	Run:  runMSRLint,
}

// msrRanges are the address windows of msr.go's register map: the real
// Intel addresses (IIO_LLC_WAYS 0xC8B, IA32_PQR_ASSOC 0xC8F,
// IA32_L3_QOS_MASK_n from 0xC90, IA32_L2_QoS_Ext_BW_Thrtl_n from 0xD50)
// and the repository's synthetic flattened blocks (per-core PQR_ASSOC at
// 0x0C8F_0000, per-core and per-CHA counters at 0xF000_0000/0xF100_0000).
var msrRanges = []struct {
	lo, hi uint64
	name   string
}{
	{0x0C8B, 0x0C8B, "IIO_LLC_WAYS"},
	{0x0C8F, 0x0C8F, "IA32_PQR_ASSOC"},
	{0x0C90, 0x0CAF, "IA32_L3_QOS_MASK_n (CAT mask)"},
	{0x0D50, 0x0D6F, "IA32_L2_QoS_Ext_BW_Thrtl_n (MBA)"},
	{0x0C8F_0000, 0x0C8F_FFFF, "per-core PQR_ASSOC block"},
	{0xF000_0000, 0xF2FF_FFFF, "synthetic performance-counter block"},
}

// msrExemptSuffixes are the packages allowed to spell register addresses:
// internal/msr defines them, and internal/lint (this package) encodes the
// ranges being enforced.
var msrExemptSuffixes = []string{"/internal/msr", "/internal/lint"}

func runMSRLint(p *Pass) {
	for _, suffix := range msrExemptSuffixes {
		if strings.HasSuffix(p.Pkg.Path, suffix) {
			return
		}
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.INT {
				return true
			}
			if !strings.HasPrefix(lit.Value, "0x") && !strings.HasPrefix(lit.Value, "0X") {
				return true
			}
			v, err := strconv.ParseUint(lit.Value, 0, 64)
			if err != nil {
				return true
			}
			for _, r := range msrRanges {
				if v >= r.lo && v <= r.hi {
					p.Reportf(lit.Pos(), "hex literal %s lies in the %s MSR range; route register traffic through the internal/msr constants and typed File API", lit.Value, r.name)
					break
				}
			}
			return true
		})
	}
}
