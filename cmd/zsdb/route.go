package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/cluster"
)

// healthInterval is the router's background health-probe period, in
// `zsdb route` and `zsdb serve -replicas N` alike.
const healthInterval = 2 * time.Second

// runRoute fronts remote `zsdb serve` processes with the cluster
// router: the multi-process deployment where each backend owns its
// shard of the attached databases (or mirrors all of them) and this
// process only routes, health-checks, fails over, and aggregates.
func runRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	backends := fs.String("backends", "", "comma-separated zsdb serve base URLs, e.g. http://h1:8080,http://h2:8080 (required)")
	names := fs.String("names", "", "comma-separated replica names aligned with -backends (default: the URLs themselves); names are the ring identity, keep them stable")
	addr := fs.String("addr", ":8090", "listen address")
	callTimeout := fs.Duration("call-timeout", 5*time.Second, "per-attempt backend call timeout; a slower backend fails over")
	drain := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown timeout")
	var of obsFlags
	of.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *backends == "" {
		return fmt.Errorf("route: -backends is required")
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	var nameList []string
	if *names != "" {
		for _, n := range strings.Split(*names, ",") {
			nameList = append(nameList, strings.TrimSpace(n))
		}
		if len(nameList) != len(urls) {
			return fmt.Errorf("route: -names has %d entries for %d backends", len(nameList), len(urls))
		}
	}
	tracer, events := of.build()
	stopDebug, err := of.startDebug()
	if err != nil {
		return err
	}
	defer stopDebug()
	router := cluster.NewRouter(cluster.Config{
		CallTimeout:    *callTimeout,
		HealthInterval: healthInterval,
		Tracer:         tracer,
		Events:         events,
	})
	for i, u := range urls {
		name := ""
		if nameList != nil {
			name = nameList[i]
		}
		b, err := cluster.NewHTTPBackend(name, u, nil)
		if err != nil {
			router.Close()
			return err
		}
		if err := router.Register(b); err != nil {
			router.Close()
			return err
		}
	}
	// One synchronous probe round: starting a router with every backend
	// unreachable is almost always a typo in -backends — name the
	// offenders and keep going only if someone answered.
	ctx, cancel := context.WithTimeout(context.Background(), *callTimeout)
	up, report := checkStartupHealth(ctx, router)
	cancel()
	for name, err := range report {
		if err != nil {
			fmt.Fprintf(os.Stderr, "route: backend %s unreachable at startup: %v\n", name, err)
		}
	}
	if up == 0 {
		router.Close()
		return fmt.Errorf("route: none of the %d backend(s) answered a health probe", len(urls))
	}
	banner := fmt.Sprintf("routing over %d backend(s) (%d healthy)", len(urls), up)
	srv := newRouterServer(router)
	srv.tracer, srv.events = tracer, events
	return listenAndServe(*addr, srv.mux(), router, *drain, banner)
}

// checkStartupHealth probes every backend once so a route command fails
// fast (with a named offender) when no backend is reachable at start.
func checkStartupHealth(ctx context.Context, router *cluster.Router) (up int, report map[string]error) {
	report = router.CheckHealth(ctx)
	for _, err := range report {
		if err == nil {
			up++
		}
	}
	return up, report
}
