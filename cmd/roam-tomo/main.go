// Command roam-tomo runs the tomography pipeline for one visited
// country: attach the eSIM (and physical SIM if present), classify the
// roaming architecture from the public IP, run traceroutes, demarcate
// them, and print what the paper's analysis would conclude.
//
// Usage:
//
//	roam-tomo [-seed N] [-country ISO3] [-target Google|Facebook] [-n 5]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"roamsim"
	"roamsim/internal/measure"
)

func main() {
	seed := flag.Int64("seed", 42, "world seed")
	country := flag.String("country", "PAK", "visited country (ISO3) or EMNIFY")
	target := flag.String("target", "Google", "traceroute target SP")
	n := flag.Int("n", 5, "traceroutes per configuration")
	flag.Parse()

	w, err := roamsim.NewWorld(*seed)
	if err != nil {
		fatal(err)
	}
	d := w.Deployment(strings.ToUpper(*country))
	if d == nil {
		fatal(fmt.Errorf("unknown country %q; known: %v", *country, w.DeploymentKeys(false, false)))
	}
	if _, ok := w.Raw().SPs[*target]; !ok {
		var known []string
		for name := range w.Raw().SPs {
			known = append(known, name)
		}
		sort.Strings(known)
		fatal(fmt.Errorf("unknown target %q; known: %v", *target, known))
	}

	fmt.Printf("== %s: v-MNO %s, eSIM issued by %s (%s) ==\n\n",
		d.Key, d.VMNO.Name, d.BMNO.Name, d.BMNO.PLMN)

	runConfig(w, d, "esim", *target, *n)
	if d.SIMProfile != nil {
		runConfig(w, d, "sim", *target, *n)
	}
}

func runConfig(w *roamsim.World, d *roamsim.Deployment, config, target string, n int) {
	r := w.Rand()
	var s *roamsim.Session
	var err error
	if config == "esim" {
		s, err = d.AttachESIM(r)
	} else {
		s, err = d.AttachSIM(r)
	}
	if err != nil {
		fatal(err)
	}
	arch, err := w.ClassifyArchitecture(s)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("[%s] public IP %s -> architecture %s\n", config, s.PublicIP, arch)
	fmt.Printf("[%s] PGW %s at %s, %s (provider %s)\n",
		config, s.PGWAddr, s.Site.City, s.Site.Country, s.Provider.Name)
	if span := s.TunnelSpanKm(); span > 0 {
		fmt.Printf("[%s] GTP tunnel span: %.0f km\n", config, span)
	}

	for i := 0; i < n; i++ {
		trc, err := roamsim.Traceroute(s, target, r)
		if err != nil {
			fatal(err)
		}
		pa, err := w.Demarcate(trc)
		if err != nil {
			fmt.Printf("[%s] trace %d: %v\n", config, i+1, err)
			continue
		}
		fmt.Printf("[%s] trace %d to %s: %d private + %d public hops; PGW hop %.0f ms; final %.0f ms; private share %.0f%%; %d ASNs\n",
			config, i+1, target, pa.PrivateHops, pa.PublicHops,
			pa.PGWHopRTTms, pa.FinalRTTms, pa.PrivateFraction*100, pa.UniqueASNs)
	}

	// One full mtr-style report for the record.
	tr, err := roamsim.Traceroute(s, target, r)
	if err != nil {
		fatal(err)
	}
	fmt.Print(measure.FormatMTR(tr))

	res, err := roamsim.Speedtest(s, r)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("[%s] speedtest vs %s: %.1f down / %.1f up Mbps, %.0f ms (%s, CQI %d)\n",
		config, res.ServerCity, res.DownMbps, res.UpMbps, res.LatencyMs, res.Radio.RAT, res.Radio.CQI)
	dns, err := roamsim.DNSLookup(s, r)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("[%s] DNS: resolver %s (%s, %s), %.0f ms, DoH=%v\n\n",
		config, dns.Resolver.Addr, dns.Resolver.City, dns.Resolver.Country, dns.DurationMs, dns.DoH)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "roam-tomo:", err)
	os.Exit(1)
}
