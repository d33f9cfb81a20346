package elastic

import (
	"fmt"
	"sort"

	"github.com/pubsub-systems/mcss/internal/pricing"
)

// Rental is one VM's billed lifetime: acquired at StartMinute, released at
// EndMinute (-1 while still open). Billing is per *started* instance-hour,
// like EC2's classic on-demand meter: a VM alive for 61 minutes pays two
// hours, and releasing a VM only to re-acquire one 30 minutes later pays a
// fresh started hour — which is exactly why an elastic controller holding a
// VM through a shallow trough can beat one that releases eagerly.
type Rental struct {
	Instance    pricing.InstanceType
	StartMinute int64
	EndMinute   int64
}

// Minutes reports the rental's open-ended-aware lifetime at the given
// current minute.
func (r Rental) Minutes(now int64) int64 {
	end := r.EndMinute
	if end < 0 {
		end = now
	}
	return end - r.StartMinute
}

// StartedHours reports the number of billed (started) hours: ceil over the
// lifetime, minimum one — acquiring a VM starts its first hour immediately.
func (r Rental) StartedHours(now int64) int64 {
	m := r.Minutes(now)
	if m <= 0 {
		return 1
	}
	return (m + 59) / 60
}

// BillingLedger records VM acquisitions, releases, and transfer volume over
// a controller run and prices them with hour-granularity rental billing.
// All arithmetic saturates (pricing.MicroUSD.Add/Mul) so a pathological
// timeline cannot wrap a bill negative. Not safe for concurrent use.
type BillingLedger struct {
	perGB pricing.MicroUSD

	open          map[string][]*Rental // per instance-type name, acquisition order
	all           []*Rental            // every rental, acquisition order
	transferBytes int64
	egressBytes   int64
	egressCost    pricing.MicroUSD
	nowMinute     int64
	closed        bool

	// Charge event counters for the observability layer: VMs acquired,
	// released, and reclaimed over the ledger's lifetime (monotone, unlike
	// the open rentals).
	acquired, released, reclaimed int64
}

// NewLedger returns an empty ledger pricing transfer at perGB per decimal
// GB.
func NewLedger(perGB pricing.MicroUSD) *BillingLedger {
	return &BillingLedger{perGB: perGB, open: make(map[string][]*Rental)}
}

// advance moves the ledger clock monotonically.
func (l *BillingLedger) advance(atMinute int64) error {
	if l.closed {
		return fmt.Errorf("elastic: ledger already closed")
	}
	if atMinute < l.nowMinute {
		return fmt.Errorf("elastic: ledger time moved backwards: %d < %d", atMinute, l.nowMinute)
	}
	l.nowMinute = atMinute
	return nil
}

// Acquire starts n rentals of the given instance type at the given virtual
// minute.
func (l *BillingLedger) Acquire(it pricing.InstanceType, n int, atMinute int64) error {
	if n < 0 {
		return fmt.Errorf("elastic: acquire %d VMs", n)
	}
	if err := l.advance(atMinute); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		r := &Rental{Instance: it, StartMinute: atMinute, EndMinute: -1}
		l.open[it.Name] = append(l.open[it.Name], r)
		l.all = append(l.all, r)
	}
	l.acquired += int64(n)
	return nil
}

// Release ends n open rentals of the given instance type, youngest first
// (LIFO keeps the longest-running rentals alive, so their started hours
// amortize best).
func (l *BillingLedger) Release(it pricing.InstanceType, n int, atMinute int64) error {
	if n < 0 {
		return fmt.Errorf("elastic: release %d VMs", n)
	}
	if err := l.advance(atMinute); err != nil {
		return err
	}
	stack := l.open[it.Name]
	if n > len(stack) {
		return fmt.Errorf("elastic: release %d %s VMs but only %d are open", n, it.Name, len(stack))
	}
	for i := 0; i < n; i++ {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r.EndMinute = atMinute
	}
	l.open[it.Name] = stack
	l.released += int64(n)
	return nil
}

// Reclaim ends n open rentals of the given instance type at the given
// virtual minute — the provider-initiated counterpart of Release. Two
// differences matter for the bill: the provider takes whichever VMs it
// wants, modeled here as oldest-first (FIFO — the opposite of Release's
// LIFO, so a reclamation never cannibalizes the young rental a replacement
// just started), and a reclaimed-and-replaced VM charges both started
// hours: the reclaimed rental's hours are already ceil'd at its end minute
// and the replacement acquired in the same minute opens a fresh rental
// whose first started hour bills immediately. That per-started-hour
// double-charge under churn is exactly what the spot decision fleet's
// expected-repair term prices in.
func (l *BillingLedger) Reclaim(it pricing.InstanceType, n int, atMinute int64) error {
	if n < 0 {
		return fmt.Errorf("elastic: reclaim %d VMs", n)
	}
	if err := l.advance(atMinute); err != nil {
		return err
	}
	queue := l.open[it.Name]
	if n > len(queue) {
		return fmt.Errorf("elastic: reclaim %d %s VMs but only %d are open", n, it.Name, len(queue))
	}
	for i := 0; i < n; i++ {
		queue[i].EndMinute = atMinute
	}
	l.open[it.Name] = queue[n:]
	l.reclaimed += int64(n)
	return nil
}

// AddTransfer accrues transfer volume (incoming plus outgoing bytes).
func (l *BillingLedger) AddTransfer(bytes int64) {
	if bytes > 0 {
		l.transferBytes += bytes
	}
}

// AddEgress accrues cross-region transfer volume and its already-priced
// cost (the egress matrix prices per directed region pair, so the caller —
// core.EgressPerHour — prices before accrual). Egress is billed on top of
// the flat per-GB transfer charge, like real clouds bill inter-region
// traffic on top of Internet egress. Without a multi-region topology
// nothing ever calls this and the bill reduces to the paper's C1+C2.
func (l *BillingLedger) AddEgress(bytes int64, cost pricing.MicroUSD) {
	if bytes > 0 {
		l.egressBytes += bytes
	}
	if cost > 0 {
		l.egressCost = l.egressCost.Add(cost)
	}
}

// Close ends every open rental at the given minute; further mutation is
// rejected.
func (l *BillingLedger) Close(atMinute int64) error {
	if err := l.advance(atMinute); err != nil {
		return err
	}
	for name, stack := range l.open {
		for _, r := range stack {
			r.EndMinute = atMinute
		}
		delete(l.open, name)
	}
	l.closed = true
	return nil
}

// AcquiredVMs and ReleasedVMs report the lifetime charge-event counts —
// every VM ever acquired/released, regardless of what is still open. The
// metrics layer mirrors them into monotone counters.
func (l *BillingLedger) AcquiredVMs() int64 { return l.acquired }
func (l *BillingLedger) ReleasedVMs() int64 { return l.released }

// ReclaimedVMs reports the lifetime count of provider-initiated rental
// terminations (spot reclamations).
func (l *BillingLedger) ReclaimedVMs() int64 { return l.reclaimed }

// TransferBytes reports the accrued transfer volume.
func (l *BillingLedger) TransferBytes() int64 { return l.transferBytes }

// EgressBytes reports the accrued cross-region transfer volume.
func (l *BillingLedger) EgressBytes() int64 { return l.egressBytes }

// EgressCost reports the accrued cross-region transfer cost.
func (l *BillingLedger) EgressCost() pricing.MicroUSD { return l.egressCost }

// StartedHours reports the total billed instance-hours across all rentals.
func (l *BillingLedger) StartedHours() int64 {
	var sum int64
	for _, r := range l.all {
		sum += r.StartedHours(l.nowMinute)
	}
	return sum
}

// RentalCost prices every rental at its instance's hourly rate per started
// hour (C1 with hour granularity).
func (l *BillingLedger) RentalCost() pricing.MicroUSD {
	var sum pricing.MicroUSD
	for _, r := range l.all {
		sum = sum.Add(r.Instance.HourlyRate.Mul(r.StartedHours(l.nowMinute)))
	}
	return sum
}

// TransferCost prices the accrued transfer volume (C2).
func (l *BillingLedger) TransferCost() pricing.MicroUSD {
	return pricing.BandwidthCost(l.perGB, l.transferBytes)
}

// TotalCost is RentalCost + TransferCost + EgressCost, saturating.
func (l *BillingLedger) TotalCost() pricing.MicroUSD {
	return l.RentalCost().Add(l.TransferCost()).Add(l.egressCost)
}

// Rentals returns a copy of every rental, ordered by start minute (ties by
// instance name) for stable reporting.
func (l *BillingLedger) Rentals() []Rental {
	out := make([]Rental, len(l.all))
	for i, r := range l.all {
		out[i] = *r
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartMinute != out[j].StartMinute {
			return out[i].StartMinute < out[j].StartMinute
		}
		return out[i].Instance.Name < out[j].Instance.Name
	})
	return out
}
