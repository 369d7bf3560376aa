// Command collabdesign runs the paper's second example (§2.1): a design
// team whose dapplets form a long-lived session. Designers edit document
// parts under per-part write tokens (§4.1) and every edit is propagated
// to the appropriate members; the program shows all replicas converging.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/designdoc"
	"repro/internal/scenario"
)

func main() {
	ctx := context.Background()
	w, err := scenario.BuildDesign(ctx, scenario.DesignOptions{
		Designers: 4,
		Parts:     []string{"frame", "engine", "ui"},
		UseTokens: true,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()

	fmt.Println("design session up:", w.Handle.ID())

	// Everybody edits the shared engine spec concurrently; the part
	// token serializes writers and issues the version numbers.
	const editsEach = 3
	var mu sync.Mutex
	var wg sync.WaitGroup
	total := 0
	for i, ds := range w.Designers {
		wg.Add(1)
		go func(i int, ds *designdoc.Designer) {
			defer wg.Done()
			for k := 0; k < editsEach; k++ {
				p, err := ds.Edit(ctx, "engine", fmt.Sprintf("designer-%d revision %d", i, k))
				if err != nil {
					log.Printf("edit failed: %v", err)
					return
				}
				mu.Lock()
				total++
				mu.Unlock()
				fmt.Printf("designer-%d wrote engine v%d\n", i, p.Version)
			}
		}(i, ds)
	}
	wg.Wait()

	// Convergence: every replica reaches the final version.
	for i, ds := range w.Designers {
		if !ds.WaitVersion("engine", total, 10*time.Second) {
			log.Fatalf("designer-%d never converged to v%d", i, total)
		}
	}
	p, _ := w.Designers[0].Part("engine")
	fmt.Printf("\nall %d replicas converged to engine v%d (last editor %s)\n",
		len(w.Designers), p.Version, p.Editor)
	if !w.Alloc.ConservationHolds() {
		log.Fatal("token conservation violated")
	}
	fmt.Println("token conservation invariant holds")
}
