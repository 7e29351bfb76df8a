// Package nbflow is the flow-sensitive nbdiscipline fixture: every case
// here needs the control-flow graph to judge correctly. The first two
// (early-return leak, use-before-wait) are invisible to a lexical
// check, which sees a Wait somewhere below every issue.
package nbflow

import (
	"errors"

	"fourindex/internal/ga"
)

// earlyReturnLeak waits at the end of the function, but the error
// branch returns first: on that path the handle leaks. A lexical check
// sees a Wait later in the source and stays silent.
func earlyReturnLeak(p *ga.Proc, a *ga.TiledArray, buf []float64, bad bool) error {
	h := p.NbGetT(a, buf, 0, 0) // want `nonblocking handle "h" does not reach Wait or WaitAll on the path returning at line \d+`
	if bad {
		return errors.New("bailed before wait")
	}
	h.Wait(p)
	return nil
}

// useBeforeWait reads the destination buffer while the get is still in
// flight. Lexically the Wait is present, so a lexical check stays
// silent; only path order exposes the undefined read.
func useBeforeWait(p *ga.Proc, a *ga.TiledArray, buf []float64) float64 {
	h := p.NbGetT(a, buf, 0, 0) // want `buffer "buf" filled by NbGetT is read on line \d+ before the handle's Wait`
	v := buf[0]
	h.Wait(p)
	return v
}

// condWaitFallsOff waits on only one branch; the other falls off the
// end of the function with the handle pending.
func condWaitFallsOff(p *ga.Proc, a *ga.TiledArray, buf []float64, c bool) {
	h := p.NbPutT(a, buf, 0, 0) // want `nonblocking handle "h" does not reach Wait or WaitAll on a path falling off the end of the function`
	if c {
		h.Wait(p)
	}
}

// barrierOnOnePath crosses a barrier before the wait on the true
// branch only; flow sensitivity pins the offending line.
func barrierOnOnePath(p *ga.Proc, a *ga.TiledArray, buf []float64, c bool) {
	h := p.NbPutT(a, buf, 0, 0) // want `nonblocking handle "h" crosses a barrier on line \d+ before its Wait`
	if c {
		p.Barrier()
	}
	h.Wait(p)
}

// loopLeak issues inside the loop but waits only outside: the back edge
// re-issues over a pending handle and the final iteration's wait is
// fine, but an early continue path skips it.
func loopLeak(p *ga.Proc, a *ga.TiledArray, buf []float64, n int) error {
	for t := 0; t < n; t++ {
		h := p.NbGetT(a, buf, 0, t) // want `nonblocking handle "h" does not reach Wait or WaitAll on the path returning at line \d+`
		if t == 13 {
			return errors.New("unlucky tile")
		}
		h.Wait(p)
	}
	return nil
}

// cleanBranchWaits waits on every branch.
func cleanBranchWaits(p *ga.Proc, a *ga.TiledArray, buf []float64, c bool) {
	h := p.NbGetT(a, buf, 0, 0)
	if c {
		h.Wait(p)
	} else {
		h.Wait(p)
	}
	_ = buf[0]
}

// cleanDeferWait arms the wait before the early return, so every later
// exit completes the handle.
func cleanDeferWait(p *ga.Proc, a *ga.TiledArray, buf []float64, bad bool) error {
	h := p.NbGetT(a, buf, 0, 0)
	defer h.Wait(p)
	if bad {
		return errors.New("covered by the deferred wait")
	}
	return nil
}

// cleanPanicPath dies on the error branch: a dying path owes no wait.
func cleanPanicPath(p *ga.Proc, a *ga.TiledArray, buf []float64, bad bool) {
	h := p.NbGetT(a, buf, 0, 0)
	if bad {
		panic("dead path")
	}
	h.Wait(p)
}

// cleanEscapeOnErrorPath hands the handle to the caller on the error
// branch and waits on the normal one.
func cleanEscapeOnErrorPath(p *ga.Proc, a *ga.TiledArray, buf []float64, bad bool) *ga.Handle {
	h := p.NbPutT(a, buf, 0, 0)
	if bad {
		return h
	}
	h.Wait(p)
	return nil
}

// cleanLoopIssueWait pairs issue and wait inside the same iteration.
func cleanLoopIssueWait(p *ga.Proc, a *ga.TiledArray, buf []float64, n int) {
	for t := 0; t < n; t++ {
		h := p.NbGetT(a, buf, 0, t)
		h.Wait(p)
		_ = buf[0]
	}
}

// cleanClosureCapture gives the handle to a closure; the closure owns
// the wait, which is an ownership escape.
func cleanClosureCapture(p *ga.Proc, a *ga.TiledArray, buf []float64) func() {
	h := p.NbPutT(a, buf, 0, 0)
	return func() { h.Wait(p) }
}

// cleanSwitchWaits waits in every case including default.
func cleanSwitchWaits(p *ga.Proc, a *ga.TiledArray, buf []float64, k int) {
	h := p.NbGetT(a, buf, 0, 0)
	switch k {
	case 0:
		h.Wait(p)
	default:
		p.WaitAll(h)
	}
}
