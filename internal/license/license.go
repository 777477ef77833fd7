// Package license implements data licensing (paper §4.4): sellers attach
// licenses to datasets conferring different rights — open resale, no-resale,
// exclusive access (with an exclusivity tax), or full ownership transfer —
// and the arbiter enforces them at transaction time. Licensing is also what
// makes the arbitrageur economy of §7.1 possible: a resale-allowed license
// lets a buyer transform a dataset and sell it back to the market.
package license

import (
	"fmt"
	"sync"
)

// Kind enumerates license types.
type Kind string

// License kinds.
const (
	// Open permits use and resale of derivatives.
	Open Kind = "open"
	// NoResale permits use but forbids reselling the data or derivatives.
	NoResale Kind = "no-resale"
	// Exclusive grants a single buyer sole access; the artificial scarcity
	// costs an ongoing exclusivity tax (paper: buyers "could be forced to
	// pay a 'tax' so long they maintain the exclusivity access").
	Exclusive Kind = "exclusive"
	// Transfer moves ownership entirely to the buyer.
	Transfer Kind = "transfer"
)

// Terms are the license terms attached to a dataset.
type Terms struct {
	Kind Kind
	// ExclusivityTaxRate is the per-period tax as a fraction of sale price
	// (Exclusive only).
	ExclusivityTaxRate float64
}

// Validate checks coherence.
func (t Terms) Validate() error {
	switch t.Kind {
	case Open, NoResale, Transfer:
		if t.ExclusivityTaxRate != 0 {
			return fmt.Errorf("license: %s terms cannot carry an exclusivity tax", t.Kind)
		}
	case Exclusive:
		if t.ExclusivityTaxRate < 0 {
			return fmt.Errorf("license: negative exclusivity tax")
		}
	default:
		return fmt.Errorf("license: unknown kind %q", t.Kind)
	}
	return nil
}

// Supply returns the mechanism supply implied by the license: exclusive and
// transfer licenses sell one copy; open and no-resale data is freely
// replicable (unlimited supply, the paper's §3.2.1 headache).
func (t Terms) Supply() int {
	if t.Kind == Exclusive || t.Kind == Transfer {
		return 1
	}
	return -1 // market.SupplyUnlimited
}

// Grant records a license issued to a beneficiary for a dataset.
type Grant struct {
	Dataset     string
	Beneficiary string
	Terms       Terms
	SalePrice   float64
	Active      bool
}

// TaxDue returns the exclusivity tax owed for one period.
func (g *Grant) TaxDue() float64 {
	if !g.Active || g.Terms.Kind != Exclusive {
		return 0
	}
	return g.SalePrice * g.Terms.ExclusivityTaxRate
}

// CanResell reports whether the beneficiary may resell data derived from the
// dataset.
func (g *Grant) CanResell() bool {
	return g.Terms.Kind == Open || g.Terms.Kind == Transfer
}

// Manager tracks dataset terms and issued grants, enforcing exclusivity.
type Manager struct {
	mu     sync.Mutex
	terms  map[string]Terms
	grants []*Grant
}

// NewManager creates an empty manager.
func NewManager() *Manager {
	return &Manager{terms: map[string]Terms{}}
}

// SetTerms attaches license terms to a dataset.
func (m *Manager) SetTerms(dataset string, t Terms) error {
	if err := t.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.terms[dataset] = t
	return nil
}

// CloneTerms returns a manager carrying a copy of m's terms and no grants.
func (m *Manager) CloneTerms() *Manager {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewManager()
	for ds, t := range m.terms {
		out.terms[ds] = t
	}
	return out
}

// TermsFor returns the terms for a dataset (Open by default).
func (m *Manager) TermsFor(dataset string) Terms {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.terms[dataset]; ok {
		return t
	}
	return Terms{Kind: Open}
}

// Issue grants a license for a sale, enforcing exclusivity: an exclusive or
// transfer dataset with an active grant cannot be granted again.
func (m *Manager) Issue(dataset, beneficiary string, price float64) (*Grant, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.terms[dataset]
	if !ok {
		t = Terms{Kind: Open}
	}
	if t.Supply() == 1 {
		for _, g := range m.grants {
			if g.Dataset == dataset && g.Active {
				return nil, fmt.Errorf("license: dataset %q exclusively granted to %q", dataset, g.Beneficiary)
			}
		}
	}
	g := &Grant{Dataset: dataset, Beneficiary: beneficiary, Terms: t, SalePrice: price, Active: true}
	m.grants = append(m.grants, g)
	return g, nil
}

// Revoke deactivates a grant (e.g. the beneficiary stopped paying the
// exclusivity tax), reopening exclusive supply.
func (m *Manager) Revoke(g *Grant) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g.Active = false
}

// GrantsFor lists active grants over a dataset.
func (m *Manager) GrantsFor(dataset string) []*Grant {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Grant
	for _, g := range m.grants {
		if g.Dataset == dataset && g.Active {
			out = append(out, g)
		}
	}
	return out
}

// MayResell reports whether a participant may resell derivatives of the
// dataset, i.e. whether they hold a resale-permitting grant (or are the
// owner).
func (m *Manager) MayResell(dataset, participant string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, g := range m.grants {
		if g.Dataset == dataset && g.Beneficiary == participant && g.Active {
			return g.CanResell()
		}
	}
	return false
}

// PeriodTaxes returns the exclusivity taxes due this period per beneficiary.
func (m *Manager) PeriodTaxes() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]float64{}
	for _, g := range m.grants {
		if tax := g.TaxDue(); tax > 0 {
			out[g.Beneficiary] += tax
		}
	}
	return out
}
