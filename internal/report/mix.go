package report

import (
	"fmt"
	"sort"
	"strings"
)

// FormatMix renders an instance-type count map (e.g. core.Allocation's
// InstanceMix) as a compact deterministic string like
// "38×c3.large + 2×c3.8xlarge", largest count first, ties by name;
// unnamed keys (legacy VMs without a recorded instance) become "?".
func FormatMix(mix map[string]int) string {
	if len(mix) == 0 {
		return "(none)"
	}
	type entry struct {
		name  string
		count int
	}
	entries := make([]entry, 0, len(mix))
	for name, n := range mix {
		if name == "" {
			name = "?"
		}
		entries = append(entries, entry{name, n})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].count != entries[j].count {
			return entries[i].count > entries[j].count
		}
		return entries[i].name < entries[j].name
	})
	parts := make([]string, len(entries))
	for i, e := range entries {
		parts[i] = fmt.Sprintf("%d×%s", e.count, e.name)
	}
	return strings.Join(parts, " + ")
}
