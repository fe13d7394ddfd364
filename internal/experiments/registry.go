package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner executes one experiment under the given parameters.
type Runner func(Params) ([]Figure, error)

// Registry maps experiment identifiers to runners, one per paper figure.
var Registry = map[string]Runner{
	"fig5a": Fig5a,
	"fig5b": Fig5b,
	"fig6":  Fig6,
	"fig7":  Fig7,
	"fig8":  Fig8,
	"fig9":  Fig9,
	"fig10": Fig10,
	"fig11": Fig11,
	"fig12": Fig12,
	"fig13": Fig13,
	"fig14": Fig14,
	"fig15": Fig15,
	// Extensions beyond the paper's figures (DESIGN.md §5).
	"ablation": Ablation,
	"latency":  Latency,
	"measures": Measures,
	"plans":    Plans,
	"stages":   Stages,
}

// Names returns the registered experiment identifiers sorted for display.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		// Numeric-aware ordering: fig5a < fig5b < fig6 < … < fig15.
		return figOrder(out[i]) < figOrder(out[j])
	})
	return out
}

func figOrder(name string) int {
	var n int
	var suffix byte
	if _, err := fmt.Sscanf(name, "fig%d", &n); err != nil {
		// Extension experiments sort after the paper's figures,
		// alphabetically by first letter.
		return 1_000_000 + int(name[0])
	}
	fmt.Sscanf(name, "fig%d%c", &n, &suffix)
	sub := 0
	if suffix >= 'a' && suffix <= 'z' {
		sub = int(suffix-'a') + 1
	}
	return n*100 + sub
}

// Run executes the named experiment and writes its formatted figures to w.
func Run(name string, p Params, w io.Writer) error {
	r, ok := Registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, Names())
	}
	figs, err := r(p)
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", name, err)
	}
	for _, f := range figs {
		if _, err := io.WriteString(w, f.Format()); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// RunAll executes every registered experiment in figure order.
func RunAll(p Params, w io.Writer) error {
	for _, name := range Names() {
		if _, err := fmt.Fprintf(w, "### %s (%s)\n", name, p); err != nil {
			return err
		}
		if err := Run(name, p, w); err != nil {
			return err
		}
	}
	return nil
}
