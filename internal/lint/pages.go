package lint

import (
	"fmt"

	"codetomo/internal/compile"
	"codetomo/internal/minic"
)

// lintPages emits the opt-in flash-page report (ctlint -pages): for every
// procedure, how many flash pages its code occupies — flagging procedures
// that straddle more pages than their size requires, which page-aware
// placement could fix.
func (l *linter) lintPages(f *minic.File, out *compile.Output) {
	cost := out.Meta.Cost
	ps := cost.PageSizeBytes
	if ps == 0 {
		return
	}
	off := cost.ByteOffsets(out.Code)

	for _, p := range out.CFG.Procs {
		pm := out.Meta.ProcByName[p.Name]
		if pm == nil {
			continue
		}
		pos := funcPos(f, p.Name)

		startB, endB := off[pm.EntryAddr], off[pm.EndAddr]
		bytes := endB - startB
		firstPage, lastPage := startB/ps, (endB-1)/ps
		spanned := lastPage - firstPage + 1
		minimum := (bytes + ps - 1) / ps
		var span string
		if firstPage == lastPage {
			span = fmt.Sprintf("on flash page %d", firstPage)
		} else {
			span = fmt.Sprintf("across flash pages %d-%d", firstPage, lastPage)
		}
		msg := fmt.Sprintf("%q: %d code bytes %s (%d-byte pages)", p.Name, bytes, span, ps)
		if spanned > minimum {
			msg += fmt.Sprintf("; straddles %d more page(s) than its size needs", spanned-minimum)
		}
		l.add(pos, SevInfo, "page-info", msg)
	}
}
